"""The PUL container (Definitions 3–5).

A PUL is an *unordered* list of update operations. The container keeps the
insertion order only to make results reproducible (the semantics never
depends on it beyond the nondeterminism the paper models explicitly).

A PUL additionally carries the extended labels of the target nodes — the
structural information that lets the reasoning operators work without
accessing the document (Section 4.1: "labels are ... attached to the target
nodes of the operations specified in a PUL").
"""

from __future__ import annotations

from repro.errors import (
    IncompatibleOperationsError,
    MergeError,
    NotApplicableError,
)
from repro.pul.ops import (
    Delete,
    OpClass,
    ReplaceNode,
    UpdateOperation,
)


class PUL:
    """A pending update list.

    Parameters
    ----------
    operations:
        Iterable of :class:`~repro.pul.ops.UpdateOperation`.
    labels:
        Optional mapping ``node id -> ExtendedLabel`` for (at least) the
        operations' targets. Carried along by every PUL transformation.
    origin:
        Optional identifier of the producer that created the PUL (used by
        conflict resolution policies).
    """

    def __init__(self, operations=(), labels=None, origin=None):
        self._ops = []
        for op in operations:
            if not isinstance(op, UpdateOperation):
                raise TypeError(
                    "PUL items must be UpdateOperations, got {!r}"
                    .format(op))
            self._ops.append(op)
        self.labels = dict(labels) if labels else {}
        self.origin = origin

    # -- container protocol --------------------------------------------------

    def __iter__(self):
        return iter(self._ops)

    def __len__(self):
        return len(self._ops)

    def __contains__(self, op):
        return op in self._ops

    def __getitem__(self, index):
        return self._ops[index]

    def operations(self):
        """The operations as a list copy."""
        return list(self._ops)

    def targets(self):
        """The set of target node ids."""
        return {op.target for op in self._ops}

    def add(self, op):
        """Append an operation (no compatibility check; see validate)."""
        self._ops.append(op)
        return self

    # -- equality (as multisets; a PUL is unordered) -------------------------

    def __eq__(self, other):
        if not isinstance(other, PUL):
            return NotImplemented
        return sorted(self._ops, key=_op_order) == \
            sorted(other._ops, key=_op_order)

    def __hash__(self):
        return hash(tuple(sorted(
            (hash(op) for op in self._ops))))

    # -- Definition 3 / 4 ----------------------------------------------------

    def incompatible_pairs(self):
        """Yield the pairs of incompatible operations (Definition 3):
        replacement operations sharing target and name."""
        groups = {}
        for op in self._ops:
            if op.op_class is OpClass.REPLACE:
                groups.setdefault((op.target, op.op_name), []).append(op)
        for ops in groups.values():
            first = ops[0]
            for other in ops[1:]:
                yield first, other

    def check_compatible(self):
        """Raise on the first incompatible pair."""
        for op1, op2 in self.incompatible_pairs():
            raise IncompatibleOperationsError(op1, op2)

    def applicability_errors(self, document):
        """All reasons the PUL is not applicable on ``document``."""
        errors = []
        for op1, op2 in self.incompatible_pairs():
            errors.append("incompatible: {} / {}".format(
                op1.describe(), op2.describe()))
        for op in self._ops:
            for reason in op.applicability_errors(document):
                errors.append("{}: {}".format(op.describe(), reason))
        return errors

    def is_applicable(self, document):
        """Definition 4."""
        return not self.applicability_errors(document)

    def require_applicable(self, document):
        errors = self.applicability_errors(document)
        if errors:
            raise NotApplicableError("; ".join(errors))

    # -- normalization -------------------------------------------------------

    def normalized(self):
        """A copy with ``repN(v, [])`` rewritten to ``del(v)`` (footnote 3:
        the two are equivalent; conflict detection assumes the rewriting)."""
        ops = []
        for op in self._ops:
            if isinstance(op, ReplaceNode) and op.is_empty():
                ops.append(Delete(op.target))
            else:
                ops.append(op)
        return PUL(ops, labels=self.labels, origin=self.origin)

    # -- derivation helpers ---------------------------------------------------

    def replace_operations(self, operations):
        """A PUL with the given operations but this PUL's labels/origin."""
        return PUL(operations, labels=self.labels, origin=self.origin)

    def copy(self):
        """Deep copy (operations duplicated, labels shared by value)."""
        return PUL([op.copy() for op in self._ops], labels=self.labels,
                   origin=self.origin)

    def label_of(self, node_id):
        """The carried label of a target node (raises KeyError if the PUL
        does not carry it)."""
        return self.labels[node_id]

    def attach_labels(self, labeling):
        """Record the labels of all labeled targets from a
        :class:`~repro.labeling.scheme.ContainmentLabeling` (producer side,
        before shipping the PUL): each in its exchange form, made from
        the target's codes and the labeled document."""
        for op in self._ops:
            if op.target in labeling:
                self.labels[op.target] = labeling.exchange_label(op.target)
        return self

    def describe(self):
        return "{" + ", ".join(op.describe() for op in self._ops) + "}"

    def __repr__(self):
        return "PUL({} ops)".format(len(self._ops))


def _op_order(op):
    return (op.op_name, op.target, op._param_canonical())


def merge(pul1, pul2, document=None):
    """Definition 5: the merge ``pul1 ∘ pul2`` is the union of their
    operations, provided it is applicable (compatibility always checked;
    per-operation applicability checked when ``document`` is given)."""
    union = PUL(list(pul1) + list(pul2),
                labels={**pul1.labels, **pul2.labels})
    try:
        if document is not None:
            union.require_applicable(document)
        else:
            union.check_compatible()
    except NotApplicableError as exc:
        raise MergeError("PULs cannot be merged: {}".format(exc)) from exc
    return union
