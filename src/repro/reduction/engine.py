"""Optimized staged reduction engine (Section 3.1).

Exploits the observations the paper makes about the rules: O3/O4 are the
only rules relating targets across ancestor-descendant distance (handled by
a single sweep over targets sorted in document order), stage 10 is a plain
rewriting, and every other rule relates operations on the same, sibling,
parent-child or element-attribute nodes — all constant-time joins through
the extended labels. Overall O(k log k) in the PUL size ``k``.

After stage 1 every (variant, target) pair holds at most one operation
(same-variant inserts were collapsed by I5; same-variant replacements are
incompatible; duplicate deletes are deduplicated), which is what makes the
later stages single-pass.
"""

from __future__ import annotations

import heapq

from repro.pul.ops import InsertIntoAsFirst
from repro.reasoning.oracle import oracle_for
from repro.reduction.rules import (
    DEL,
    INS_A,
    INS_ATTR,
    INS_B,
    INS_F,
    INS_I,
    INS_L,
    REP_C,
    REP_N,
    _O2_VICTIMS,
    tree_keys,
)

_INSERT_NAMES = frozenset({INS_B, INS_A, INS_F, INS_L, INS_I, INS_ATTR})


def _collapse_canonical(group):
    """I5 on one same-variant same-target group in Definition 9's order:
    merge the ``<p``-minimal pair first, and rank the merged parameter by
    its own serialization (a plain sort differs once one parameter's
    serialization is a prefix of another's). A forest serializes as the
    concatenation of its trees, so the merged key is the two keys joined,
    and so are the two tuples of per-tree keys that break its ties."""
    heap = [(op.param_key(), tree_keys(op), i, list(op.trees))
            for i, op in enumerate(group)]
    heapq.heapify(heap)
    serial = len(heap)
    while len(heap) > 1:
        first_key, first_trees, __, first = heapq.heappop(heap)
        second_key, second_trees, __, second = heapq.heappop(heap)
        heapq.heappush(heap, (first_key + second_key,
                              first_trees + second_trees, serial,
                              first + second))
        serial += 1
    return group[0].with_trees(heap[0][3])


class _Engine:
    """One reduction run over a PUL."""

    def __init__(self, pul, oracle, canonical):
        self.oracle = oracle
        self.canonical = canonical
        self.ops = list(pul)
        if canonical:
            self.ops.sort(key=self._op_key)
        #: (op_name, target) -> op; valid from the end of stage 1 on
        self.singles = {}

    def _op_key(self, op):
        key = (self.oracle.order_key(op.target), op.op_name)
        # only Definition 9 needs the order total (<lex on parameters);
        # the other reductions merely iterate in document order, and ops
        # of one kind never tie there, so they serialize no parameter
        if self.canonical:
            return key + (op.param_key(), tree_keys(op))
        return key

    # -- stage 1 -------------------------------------------------------------

    def stage1(self):
        by_target = {}
        for op in self.ops:
            by_target.setdefault(op.target, []).append(op)
        survivors = []
        for target, group in by_target.items():
            survivors.extend(self._stage1_local(group))
        survivors = self._stage1_sweep(survivors)
        self._stage1_collapse(survivors)

    def _stage1_local(self, group):
        """O1/O2 on one same-target group."""
        rep_n = next((op for op in group if op.op_name == REP_N), None)
        deletion = next((op for op in group if op.op_name == DEL), None)
        killer = rep_n if rep_n is not None else deletion
        if killer is not None:
            # O1: everything in the victim set dies; sibling inserts live.
            return [killer] + [op for op in group
                               if op.op_name in (INS_B, INS_A)]
        rep_c = next((op for op in group if op.op_name == REP_C), None)
        if rep_c is not None:
            # O2: child inserts die under a same-target repC.
            return [op for op in group if op.op_name not in _O2_VICTIMS]
        return group

    def _stage1_sweep(self, ops):
        """O3/O4: drop operations targeted inside a repN/del subtree (or a
        repC subtree, attributes of the repC target excepted)."""
        decorated = sorted(
            ((self.oracle.interval(op.target), op) for op in ops),
            key=lambda item: item[0][0])
        survivors = []
        hard = []   # stack of (hi, target) for repN/del killers
        soft = []   # stack of (hi, target) for repC killers
        for (lo, hi), op in decorated:
            while hard and hard[-1][0] < lo:
                hard.pop()
            while soft and soft[-1][0] < lo:
                soft.pop()
            # every remaining stack entry spans lo, hence (by interval
            # nesting) strictly contains op unless it sits on op's target
            dropped = any(
                target != op.target and hi < s_hi
                for s_hi, target in hard)                      # O3
            if not dropped:
                dropped = any(
                    target != op.target and hi < s_hi
                    and not self.oracle.is_attribute_of(op.target, target)
                    for s_hi, target in soft)                  # O4
            if not dropped:
                survivors.append(op)
            if op.op_name in (REP_N, DEL):
                hard.append((hi, op.target))
            elif op.op_name == REP_C:
                soft.append((hi, op.target))
        return survivors

    def _stage1_collapse(self, ops):
        """I5: fold same-variant same-target inserts; fill `singles`."""
        order = []
        grouped = {}
        for op in ops:
            key = (op.op_name, op.target)
            if key not in grouped:
                grouped[key] = []
                order.append(key)
            grouped[key].append(op)
        for key in order:
            name, target = key
            group = grouped[key]
            if len(group) == 1:
                self.singles[key] = group[0]
                continue
            if name in _INSERT_NAMES:
                if self.canonical:
                    self.singles[key] = _collapse_canonical(group)
                    continue
                trees = []
                for op in group:
                    trees.extend(op.trees)
                self.singles[key] = group[0].with_trees(trees)
            else:
                # duplicate deletes (or equal ops) collapse to one
                self.singles[key] = group[0]

    # -- helper access --------------------------------------------------------

    def _alive(self, name, target):
        return self.singles.get((name, target))

    def _drop(self, name, target):
        del self.singles[(name, target)]

    def _replace(self, op, merged):
        self.singles[(op.op_name, op.target)] = merged
        return merged

    def _iter_kind(self, name):
        """Alive operations of a variant, canonical order when needed."""
        found = [op for (n, __), op in self.singles.items() if n == name]
        found.sort(key=self._op_key)
        return found

    # -- stages 2-9 ------------------------------------------------------------

    def stage2(self):
        for ins_i in self._iter_kind(INS_I):
            ins_f = self._alive(INS_F, ins_i.target)
            if ins_f is not None:
                self._replace(ins_f, ins_f.with_trees(
                    list(ins_f.trees) + list(ins_i.trees)))
                self._drop(INS_I, ins_i.target)

    def stage3(self):
        for ins_i in self._iter_kind(INS_I):
            ins_l = self._alive(INS_L, ins_i.target)
            if ins_l is not None:
                self._replace(ins_l, ins_l.with_trees(
                    list(ins_i.trees) + list(ins_l.trees)))
                self._drop(INS_I, ins_i.target)

    def stage4(self):
        for rep_n in self._iter_kind(REP_N):
            if self.oracle.is_attribute(rep_n.target):
                continue
            ins_b = self._alive(INS_B, rep_n.target)
            if ins_b is not None:
                rep_n = self._replace(rep_n, rep_n.with_trees(
                    list(ins_b.trees) + list(rep_n.trees)))
                self._drop(INS_B, ins_b.target)
            ins_a = self._alive(INS_A, rep_n.target)
            if ins_a is not None:
                self._replace(rep_n, rep_n.with_trees(
                    list(rep_n.trees) + list(ins_a.trees)))
                self._drop(INS_A, ins_a.target)

    def _children_index(self, name):
        """parent id -> alive `name` operations on its children."""
        index = {}
        for op in self._iter_kind(name):
            if self.oracle.is_attribute(op.target):
                continue
            parent = self.oracle.parent(op.target)
            if parent is not None:
                index.setdefault(parent, []).append(op)
        return index

    def stage5(self):
        index = self._children_index(INS_B)
        for ins_i in self._iter_kind(INS_I):
            candidates = [op for op in index.get(ins_i.target, ())
                          if (INS_B, op.target) in self.singles]
            if not candidates:
                continue
            ins_b = min(candidates, key=self._op_key)
            self._replace(ins_b, ins_b.with_trees(
                list(ins_i.trees) + list(ins_b.trees)))
            self._drop(INS_I, ins_i.target)

    def stage6(self):
        index = self._children_index(INS_A)
        for ins_i in self._iter_kind(INS_I):
            candidates = [op for op in index.get(ins_i.target, ())
                          if (INS_A, op.target) in self.singles]
            if not candidates:
                continue
            ins_a = min(candidates, key=self._op_key)
            self._replace(ins_a, ins_a.with_trees(
                list(ins_a.trees) + list(ins_i.trees)))
            self._drop(INS_I, ins_i.target)

    def stage7(self):
        index = self._children_index(REP_N)
        for ins_i in self._iter_kind(INS_I):
            candidates = [op for op in index.get(ins_i.target, ())
                          if (REP_N, op.target) in self.singles]
            if not candidates:
                continue
            rep_n = min(candidates, key=self._op_key)
            self._replace(rep_n, rep_n.with_trees(
                list(rep_n.trees) + list(ins_i.trees)))
            self._drop(INS_I, ins_i.target)

    def stage8(self):
        # IR13: repN on an attribute absorbs the element's insA
        attr_rep_n = {}
        for op in self._iter_kind(REP_N):
            if self.oracle.is_attribute(op.target):
                attr_rep_n.setdefault(
                    self.oracle.parent(op.target), []).append(op)
        for ins_attr in self._iter_kind(INS_ATTR):
            candidates = [op for op in attr_rep_n.get(ins_attr.target, ())
                          if (REP_N, op.target) in self.singles]
            if not candidates:
                continue
            rep_n = min(candidates, key=self._op_key)
            self._replace(rep_n, rep_n.with_trees(
                list(rep_n.trees) + list(ins_attr.trees)))
            self._drop(INS_ATTR, ins_attr.target)
        # I14/IR16 and I15/IR17: edge-of-children adjacency
        first_anchor, last_anchor = {}, {}
        for name in (INS_B, INS_A, REP_N):
            for op in self._iter_kind(name):
                if self.oracle.is_attribute(op.target):
                    continue
                parent = self.oracle.parent(op.target)
                if parent is None:
                    continue
                if self.oracle.left_sibling(op.target) is None:
                    first_anchor.setdefault(parent, {})[name] = op
                if self.oracle.right_sibling(op.target) is None:
                    last_anchor.setdefault(parent, {})[name] = op
        for ins_f in self._iter_kind(INS_F):
            anchors = first_anchor.get(ins_f.target, {})
            receiver = anchors.get(INS_B) or anchors.get(REP_N)
            if receiver is None:
                continue
            receiver = self._alive(receiver.op_name, receiver.target)
            if receiver is None:
                continue
            self._replace(receiver, receiver.with_trees(
                list(ins_f.trees) + list(receiver.trees)))
            self._drop(INS_F, ins_f.target)
        for ins_l in self._iter_kind(INS_L):
            anchors = last_anchor.get(ins_l.target, {})
            receiver = anchors.get(INS_A) or anchors.get(REP_N)
            if receiver is None:
                continue
            receiver = self._alive(receiver.op_name, receiver.target)
            if receiver is None:
                continue
            self._replace(receiver, receiver.with_trees(
                list(receiver.trees) + list(ins_l.trees)))
            self._drop(INS_L, ins_l.target)

    def stage9(self):
        # I18 / IR19: an ins→ merges into the right sibling's ins← or repN
        for ins_a in self._iter_kind(INS_A):
            right = self.oracle.right_sibling(ins_a.target)
            if right is None:
                continue
            receiver = self._alive(INS_B, right)
            if receiver is None:
                receiver = self._alive(REP_N, right)
                if receiver is not None and \
                        self.oracle.is_attribute(receiver.target):
                    receiver = None
            if receiver is None:
                continue
            self._replace(receiver, receiver.with_trees(
                list(ins_a.trees) + list(receiver.trees)))
            self._drop(INS_A, ins_a.target)
        # IR20: an ins← merges into the left sibling's repN
        for ins_b in self._iter_kind(INS_B):
            ins_b = self._alive(INS_B, ins_b.target)  # I18 may have merged
            if ins_b is None:
                continue
            left = self.oracle.left_sibling(ins_b.target)
            if left is None:
                continue
            rep_n = self._alive(REP_N, left)
            if rep_n is None or self.oracle.is_attribute(rep_n.target):
                continue
            self._replace(rep_n, rep_n.with_trees(
                list(rep_n.trees) + list(ins_b.trees)))
            self._drop(INS_B, ins_b.target)

    def stage10(self):
        for ins_i in self._iter_kind(INS_I):
            self._drop(INS_I, ins_i.target)
            self.singles[(INS_F, ins_i.target)] = InsertIntoAsFirst(
                ins_i.target, [t.deep_copy() for t in ins_i.trees])

    # -- driver ----------------------------------------------------------------

    def run(self, deterministic):
        self.stage1()
        self.stage2()
        self.stage3()
        self.stage4()
        self.stage5()
        self.stage6()
        self.stage7()
        self.stage8()
        self.stage9()
        if deterministic:
            self.stage10()
        result = list(self.singles.values())
        if self.canonical:
            result.sort(key=self._op_key)
        return result


def reduce_pul(pul, structure=None):
    """A reduction ``∆^O`` of ``pul`` (Definition 7)."""
    oracle = oracle_for(structure if structure is not None else pul)
    ops = _Engine(pul, oracle, canonical=False).run(deterministic=False)
    return pul.replace_operations(ops)


def reduce_deterministic(pul, structure=None):
    """The deterministic reduction ``∆^H`` (Definition 8)."""
    oracle = oracle_for(structure if structure is not None else pul)
    ops = _Engine(pul, oracle, canonical=False).run(deterministic=True)
    return pul.replace_operations(ops)


def canonical_form(pul, structure=None):
    """The canonical form ``∆^H̄`` (Definition 9): unique for the PUL,
    independent of the operations' list order."""
    oracle = oracle_for(structure if structure is not None else pul)
    ops = _Engine(pul, oracle, canonical=True).run(deterministic=True)
    return pul.replace_operations(ops)
