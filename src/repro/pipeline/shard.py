"""Document-partitioned PUL sharding.

Every reduction rule (Figure 2) relates two operations whose targets are
structurally close: the same node, an ancestor/descendant pair (rules
O3/O4), a parent/child or element/attribute pair (the ``ins↓`` and
``insA`` absorption rules, the first-/last-child anchors) or adjacent
siblings (rules I18/IR19/IR20). Two operations whose targets are related
by *none* of those predicates can never interact, so a partition of the
PUL that keeps structurally related targets together makes per-shard
reduction exactly equivalent to reducing the whole PUL — the invariant
the parallel pipeline relies on (and the property suite verifies).

:func:`shard_pul` builds that partition from the containment intervals of
the extended labels (:mod:`repro.labeling.containment`): targets are
unioned with their nearest enclosing target (a sweep over interval start
codes, which transitively connects whole ancestor chains), with their
parent and with their adjacent siblings. The resulting components are
packed into ``num_shards`` bins by greedy longest-processing-time
balancing.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.reasoning.oracle import oracle_for


class _UnionFind:
    """Path-compressing union-find over hashable keys."""

    def __init__(self):
        self._parent = {}

    def add(self, key):
        self._parent.setdefault(key, key)

    def find(self, key):
        parent = self._parent
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, key1, key2):
        root1, root2 = self.find(key1), self.find(key2)
        if root1 != root2:
            self._parent[root2] = root1


#: component key grouping every target the oracle has no labels for —
#: their structural relations are unknowable, so they must stay together
#: (the per-shard reducer then fails on them exactly like the sequential
#: reducer would).
_UNKNOWN = object()

#: operations that wipe their whole subtree (rules O3/O4): a target
#: carrying one relates to every target nested inside it
_KILLERS = frozenset({"replaceNode", "delete", "replaceChildren"})
#: parent-side triggers of the parent/child rules: the child-insert
#: absorptions (stages 5-7), the first-/last-child anchors and the
#: insA-absorbing attribute repN (stage 8)
_PARENT_TRIGGERS = frozenset({"insertInto", "insertIntoAsFirst",
                              "insertIntoAsLast", "insertAttributes"})
#: child-side receivers of those same rules
_CHILD_RECEIVERS = frozenset({"insertBefore", "insertAfter",
                              "replaceNode"})


def partition_targets(targets, oracle):
    """Partition ``targets`` into reduction-independent components.

    ``targets`` is either a plain iterable of node ids — partitioned
    conservatively on pure structure (any nesting, parent/child or
    sibling-adjacency link connects) — or a mapping ``node id -> set of
    operation names``, which sharpens the edges to the pairs an actual
    reduction rule can relate:

    * containment only below a target carrying a subtree-wiping operation
      (``repN``/``del``/``repC``, rules O3/O4);
    * parent/child only between a child-insert/``insA`` parent and an
      ``ins←``/``ins→``/``repN`` child (stages 5-8);
    * sibling adjacency only for the ``ins→``/``ins←``/``repN`` joins of
      stage 9 (rules I18/IR19/IR20).

    Returns a list of target lists; two targets share a component iff
    they are connected through admitted edges within the target set.
    """
    if hasattr(targets, "keys"):
        ops_of = {t: frozenset(names) for t, names in targets.items()}
    else:
        ops_of = None
        targets = set(targets)
    uf = _UnionFind()
    known = []
    for target in targets:
        uf.add(target)
        if oracle.knows(target):
            known.append(target)
        else:
            uf.add(_UNKNOWN)
            uf.union(_UNKNOWN, target)

    def has(target, names):
        return ops_of is None or not ops_of[target].isdisjoint(names)

    # containment: sweep the interval starts, keeping a stack of the open
    # subtree-wiping ancestors; unioning with the nearest one transitively
    # links whole killer chains (rules O3/O4)
    decorated = sorted((oracle.interval(t), t) for t in known)
    stack = []  # (hi, target) of still-open (killer) intervals
    for (lo, hi), target in decorated:
        while stack and stack[-1][0] < lo:
            stack.pop()
        if stack:
            uf.union(stack[-1][1], target)
        if has(target, _KILLERS):
            stack.append((hi, target))
    for target in known:
        parent = oracle.parent(target)
        if parent in targets and (
                has(parent, _PARENT_TRIGGERS)
                and has(target, _CHILD_RECEIVERS)):
            uf.union(target, parent)
        right = oracle.right_sibling(target)
        if right in targets and (
                (has(target, ("insertAfter",))
                 and has(right, ("insertBefore", "replaceNode")))
                or (has(target, ("replaceNode",))
                    and has(right, ("insertBefore",)))):
            uf.union(target, right)
    components = {}
    for target in targets:
        components.setdefault(uf.find(target), []).append(target)
    return list(components.values())


def shard_pul(pul, num_shards, structure=None):
    """Split ``pul`` into at most ``num_shards`` independent shard PULs.

    Each shard is a PUL over a union of structurally independent
    components (labels restricted to the shard's targets), so the shards
    can be reduced concurrently and merged without any cross-shard rule
    ever being missed. The concatenation of the shards is a permutation of
    ``pul`` that preserves the relative order of same-shard operations.

    ``structure`` follows the :func:`~repro.reasoning.oracle.oracle_for`
    convention; by default the PUL's own labels are used. One shard is
    ``[pul]`` itself: nothing is partitioned or packed.
    """
    if num_shards < 1:
        raise ReproError("num_shards must be >= 1, got {}".format(
            num_shards))
    if num_shards == 1:
        return [pul]
    ops = list(pul)
    if not ops:
        return [pul.replace_operations([])]
    oracle = oracle_for(structure if structure is not None else pul)
    by_target = {}
    for op in ops:
        by_target.setdefault(op.target, []).append(op)
    target_ops = {target: {op.op_name for op in group}
                  for target, group in by_target.items()}
    components = partition_targets(target_ops, oracle)
    assignment = _pack_components(components, by_target, num_shards, oracle)
    bins = max(assignment.values()) + 1 if assignment else 1
    shard_ops = [[] for __ in range(bins)]
    for op in ops:
        shard_ops[assignment[op.target]].append(op)
    shards = []
    for group in shard_ops:
        labels = {op.target: pul.labels[op.target]
                  for op in group if op.target in pul.labels}
        shards.append(type(pul)(group, labels=labels, origin=pul.origin))
    return shards


def _pack_components(components, by_target, num_shards, oracle):
    """Greedy LPT packing of components into shards; returns the
    ``target -> shard index`` assignment. Deterministic: components are
    ordered by (op count desc, document-order key) and bins by load."""

    def component_key(component):
        weight = sum(len(by_target[t]) for t in component)
        intervals = [oracle.interval(t) for t in component
                     if oracle.knows(t)]
        anchor = (0, min(intervals)) if intervals else (1,)
        return (-weight, anchor)

    ordered = sorted(components, key=component_key)
    bins = min(num_shards, len(ordered))
    loads = [0] * bins
    assignment = {}
    for index, component in enumerate(ordered):
        bin_index = min(range(bins), key=lambda b: (loads[b], b))
        loads[bin_index] += sum(len(by_target[t]) for t in component)
        for target in component:
            assignment[target] = bin_index
    return assignment
