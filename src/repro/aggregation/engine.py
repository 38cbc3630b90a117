"""The aggregation engine — Algorithm 2.

A hash table maps every node id to either

* an **old** entry (the node belongs to the original document): the
  accumulated operations targeting it, merged with the later PULs'
  operations through rules B3/C4/C5 (plus the generalized-``repC``
  extension); or
* a **new** entry (the node was inserted by an earlier PUL of the
  sequence): a pointer to the *host record* — the forest of parameter
  trees it lives in. Operations targeting new nodes are applied directly
  inside the host forest (rule D6), with their identifiers preserved so
  that still-later PULs can reference them.

Complexity O(k + p) in the total number of operations ``k`` and inserted
nodes ``p`` (Proposition 5), up to host-forest rescans after D6
applications.
"""

from __future__ import annotations

from repro.errors import NotApplicableError
from repro.aggregation.rules import (
    FIRST_THEN_SECOND,
    OVERRIDABLE,
    SECOND_THEN_FIRST,
    cumulate_into_repc,
    cumulate_trees,
)
from repro.pul.ops import (
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    OpClass,
    ReplaceChildren,
)
from repro.pul.pul import PUL
from repro.pul.semantics import apply_to_forest

_CHILD_INSERTS = frozenset({InsertIntoAsFirst.op_name,
                            InsertIntoAsLast.op_name,
                            InsertInto.op_name})


class _Record:
    """One accumulated operation; tree parameters are kept as a mutable
    host forest so later PULs can update them in place (rule D6).
    ``pul_index`` records which PUL of the sequence contributed the
    operation — the cross-PUL rules only fire across indexes."""

    __slots__ = ("op", "trees", "dead", "pul_index")

    def __init__(self, op, pul_index):
        self.op = op
        self.trees = [tree.deep_copy(keep_ids=True) for tree in op.trees] \
            if op.has_trees else None
        self.dead = False
        self.pul_index = pul_index

    def rebuild(self):
        """The final operation this record stands for, or ``None``."""
        if self.dead:
            return None
        if self.trees is None:
            return self.op
        if not self.trees and self.op.op_class is OpClass.INSERT:
            # everything this insertion carried was later deleted
            return None
        return self.op.with_trees(self.trees)


class _Aggregator:
    def __init__(self, generalized_repc=True):
        self.generalized_repc = generalized_repc
        #: insertion-ordered accumulated records
        self.records = []
        #: old targets: target id -> {op_name: [records]}
        self.old = {}
        #: new nodes: node id -> host _Record
        self.new = {}
        #: index of the PUL currently being merged
        self.pul_index = -1

    # -- population ----------------------------------------------------------

    def add_pul(self, pul):
        self.pul_index += 1
        host_batches = {}
        old_batch = []
        for op in pul:
            host = self.new.get(op.target)
            if host is not None:
                host_batches.setdefault(id(host), (host, []))[1].append(op)
            else:
                old_batch.append(op)
        # rule D6: apply the new-target operations inside their hosts
        for host, ops in host_batches.values():
            self._apply_inside(host, ops)
        # rules A2 + B3/C4/C5 for the old-target operations, in the
        # PUL's own stage order: its ins↓ lands before its ins↙ goes in
        # front, also when both cumulate into an earlier repC
        merged = self._collapse_same_pul(old_batch)
        for op in sorted(merged, key=lambda op: op.stage):
            self._merge_old(op)

    def _collapse_same_pul(self, ops):
        """Rules A1/A2: same-variant same-target inserts of one PUL
        collapse into one operation (order: earlier-op-first semantics of
        the within-PUL group, realized with the same variant orders)."""
        result = []
        index = {}
        for op in ops:
            key = (op.op_name, op.target)
            if op.op_class is OpClass.INSERT and key in index:
                position = index[key]
                previous = result[position]
                result[position] = previous.with_trees(cumulate_trees(
                    op.op_name, previous.trees, op.trees))
            else:
                if op.op_class is OpClass.INSERT:
                    index[key] = len(result)
                result.append(op)
        return result

    def _merge_old(self, op):
        bucket = self.old.setdefault(op.target, {})
        name = op.op_name
        if name in OVERRIDABLE and name in bucket and \
                bucket[name][0].pul_index < self.pul_index:
            # rule B3: the later operation overrides the earlier one
            for record in bucket[name]:
                record.dead = True
            del bucket[name]
        if op.op_class is OpClass.INSERT:
            if name in _CHILD_INSERTS:
                repc = bucket.get(ReplaceChildren.op_name)
                if repc and repc[0].pul_index < self.pul_index:
                    # a *strictly earlier* repC fixed the children, so the
                    # later insertion lands inside the replacement content
                    # (a same-PUL repC wipes same-PUL child inserts by the
                    # ordinary stage semantics — no rule needed)
                    self._cumulate_into_repc(repc[0], op)
                    return
            previous = bucket.get(name)
            if previous and name in (FIRST_THEN_SECOND | SECOND_THEN_FIRST) \
                    and name != "insertAttributes":
                # rules C4/C5: cumulate into the earlier record
                record = previous[0]
                record.trees = cumulate_trees(
                    name, record.trees,
                    [t.deep_copy(keep_ids=True) for t in op.trees])
                self._register_nodes(record)
                return
        self._append(op, bucket)

    def _cumulate_into_repc(self, record, op):
        if not self.generalized_repc:
            raise NotApplicableError(
                "aggregating {} after a repC on node {} requires the "
                "generalized-repC extension (generalized_repc=True)".format(
                    op.describe(), op.target))
        record.trees = cumulate_into_repc(
            record.trees, op.op_name,
            [t.deep_copy(keep_ids=True) for t in op.trees])
        record.op = ReplaceChildren(record.op.target, [], strict=False)
        self._register_nodes(record)

    def _append(self, op, bucket):
        record = _Record(op, self.pul_index)
        self.records.append(record)
        bucket.setdefault(op.op_name, []).append(record)
        self._register_nodes(record)

    def _apply_inside(self, host, ops):
        """Rule D6."""
        host.trees = apply_to_forest(host.trees, ops, preserve_ids=True)
        self._register_nodes(host)

    def _register_nodes(self, record):
        if record.trees is None:
            return
        for tree in record.trees:
            for node in tree.iter_subtree():
                if node.node_id is not None:
                    self.new[node.node_id] = record

    # -- result ---------------------------------------------------------------

    def result_ops(self):
        ops = []
        for record in self.records:
            op = record.rebuild()
            if op is not None:
                ops.append(op)
        return ops


def aggregate(puls, generalized_repc=True):
    """Aggregate a sequence of PULs into one (Definition 13).

    ``puls[k]`` is assumed applicable on the original document updated by
    ``puls[:k]`` — the disconnected-producer scenario. The result is
    substitutable to the sequential application ``∆1; ...; ∆n``
    (Proposition 4).

    ``generalized_repc=False`` restricts the engine to strict XQUF
    operations; the ``repC``-then-insert dependency then raises
    :class:`~repro.errors.NotApplicableError` (the case the paper defers
    to its extended version).
    """
    puls = list(puls)
    aggregator = _Aggregator(generalized_repc=generalized_repc)
    labels = {}
    origin = None
    for pul in puls:
        aggregator.add_pul(pul)
        labels.update(pul.labels)
        origin = origin if origin is not None else pul.origin
    return PUL(aggregator.result_ops(), labels=labels, origin=origin)
