"""PUL inversion (the paper's Section 6 future work).

    "Another interesting topic we will consider as future work is the
    study of PUL inversion, but this requires either the extension of the
    PUL production algorithm or the access to the document the PUL refers
    to."

This module takes the second route: given the document a PUL refers to,
:func:`invert_pul` produces the PUL that undoes it. Undo information is
captured *before* application (the removed subtrees, the old values and
names); inserted nodes' identifiers are pinned ahead of application so the
inverse can delete exactly them.

The input PUL is first deterministically reduced (Definition 8): reduction
removes operations overridden inside removed subtrees — whose individual
inverses would target nodes absent from the updated document — and fixes
the ``ins↓`` placement, making the forward semantics deterministic.
Adjacent deleted siblings are restored by a single insertion anchored at
the nearest *surviving* left sibling (or as first children), so their
relative order comes back exactly.

Guarantee (checked by the test suite): with ``forward, inverse =
invert_pul(pul, document)``, applying ``forward`` then ``inverse`` (both
with ``preserve_ids=True``) restores a document value-equal to the
original, with every surviving original node keeping its identity.
"""

from __future__ import annotations

from repro.errors import NotApplicableError
from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertBefore,
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
)
from repro.pul.pul import PUL

_INSERT_NAMES = frozenset({
    InsertInto.op_name, InsertIntoAsFirst.op_name,
    InsertIntoAsLast.op_name, InsertBefore.op_name, InsertAfter.op_name,
    InsertAttributes.op_name,
})


class _IdPinner:
    """Assigns the identifiers the evaluator *will* assign, ahead of time.

    The deterministic evaluator gives fresh ids to new nodes in final-
    document order; pinning them explicitly (producer-style) keeps the
    inverse's targets valid without a post-application diff.
    """

    def __init__(self, document):
        self.next_id = document.allocator.next_value

    def pin(self, trees):
        pinned = []
        for tree in trees:
            copy = tree.deep_copy(keep_ids=True)
            for node in copy.iter_subtree():
                if node.node_id is None:
                    node.node_id = self.next_id
                    self.next_id += 1
            pinned.append(copy)
        return pinned


def _deleted_sibling_runs(document, delete_targets):
    """Group deleted non-attribute nodes into runs of adjacent siblings;
    returns ``[(parent, anchor_or_None, [nodes...]), ...]`` where
    ``anchor`` is the nearest left sibling surviving the forward PUL."""
    by_parent = {}
    for target_id in delete_targets:
        node = document.get(target_id)
        parent = document.parent(node)
        if node.is_attribute or parent is None:
            continue
        by_parent.setdefault(id(parent), (parent, set()))[1].add(target_id)
    runs = []
    for parent, removed in by_parent.values():
        current = None
        for child in parent.children:
            if child.node_id in removed:
                if current is None:
                    index = parent.children.index(child)
                    anchor = None
                    if index > 0:
                        anchor = parent.children[index - 1]
                    current = (parent, anchor, [])
                    runs.append(current)
                current[2].append(child)
            else:
                current = None
    return runs


def invert_pul(pul, document):
    """Build ``(forward, inverse)``: the deterministic reduction of
    ``pul`` with pinned new-node identifiers, and the PUL undoing it.

    Apply both with ``preserve_ids=True``::

        forward, inverse = invert_pul(pul, document)
        apply_pul(document, forward, preserve_ids=True)
        apply_pul(document, inverse, preserve_ids=True)   # back to start

    Raises :class:`NotApplicableError` when ``pul`` is not applicable on
    ``document`` or deletes the document root (nothing to anchor the
    restore at).
    """
    from repro.reasoning import DocumentOracle
    from repro.reduction import reduce_deterministic

    pul.require_applicable(document)
    reduced = reduce_deterministic(
        pul.normalized(), DocumentOracle(document))
    pinner = _IdPinner(document)
    forward_ops = []
    inverse_ops = []
    delete_targets = []
    replaced_anchor = {}  # deleted-or-replaced left neighbor -> new anchor

    for op in reduced:
        target = document.get(op.target)
        name = op.op_name

        if name in _INSERT_NAMES:
            pinned = pinner.pin(op.trees)
            forward_ops.append(op.with_trees(pinned))
            inverse_ops.extend(Delete(tree.node_id) for tree in pinned)

        elif name == Delete.op_name:
            forward_ops.append(op)
            if target.is_attribute:
                inverse_ops.append(InsertAttributes(
                    document.parent_id(op.target),
                    [target.deep_copy(keep_ids=True)]))
            elif target is document.root:
                raise NotApplicableError(
                    "cannot invert the deletion of the document root")
            else:
                delete_targets.append(op.target)  # restored run-wise below

        elif name == ReplaceNode.op_name:
            pinned = pinner.pin(op.trees)
            forward_ops.append(op.with_trees(pinned))
            restore = [target.deep_copy(keep_ids=True)]
            # nonempty after normalization: an empty repN became a del
            inverse_ops.append(ReplaceNode(pinned[0].node_id, restore))
            inverse_ops.extend(Delete(tree.node_id)
                               for tree in pinned[1:])
            replaced_anchor[op.target] = pinned[0].node_id

        elif name == ReplaceValue.op_name:
            forward_ops.append(op)
            inverse_ops.append(ReplaceValue(op.target, target.value))

        elif name == ReplaceChildren.op_name:
            pinned = pinner.pin(op.trees)
            forward_ops.append(
                ReplaceChildren(op.target, pinned, strict=False))
            restore = [child.deep_copy(keep_ids=True)
                       for child in target.children]
            inverse_ops.append(
                ReplaceChildren(op.target, restore, strict=False))

        elif name == Rename.op_name:
            forward_ops.append(op)
            inverse_ops.append(Rename(op.target, target.name))

        else:  # pragma: no cover - the primitive set is closed
            raise NotApplicableError(
                "cannot invert operation {!r}".format(op))

    for parent, anchor, nodes in _deleted_sibling_runs(document,
                                                       delete_targets):
        copies = [node.deep_copy(keep_ids=True) for node in nodes]
        if anchor is None:
            inverse_ops.append(InsertIntoAsFirst(parent.node_id, copies))
        else:
            # a replaced anchor is gone after the forward PUL; its first
            # replacement tree occupies the position instead
            anchor_id = replaced_anchor.get(anchor.node_id,
                                            anchor.node_id)
            inverse_ops.append(InsertAfter(anchor_id, copies))

    forward = PUL(forward_ops, labels=pul.labels, origin=pul.origin)
    inverse = PUL(inverse_ops, origin=pul.origin)
    return forward, inverse
