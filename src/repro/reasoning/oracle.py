"""Structural oracles: Table 1 predicates over operation targets.

:class:`LabelOracle` answers from the extended labels carried by PULs —
the document-independent mode the paper's executor uses.
:class:`DocumentOracle` answers from a live :class:`Document`; it exists so
that local reasoning (and the test suite, which cross-checks the two) does
not need to build labels first.

Both expose, besides the predicates, a total ``order_key`` consistent with
document order and a containment ``interval`` used by the sweep passes of
the reduction and integration algorithms.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.xdm.node import NodeType


class StructuralOracle:
    """Interface: structural facts about (original-document) node ids."""

    def node_type(self, node_id):
        raise NotImplementedError

    def parent(self, node_id):
        raise NotImplementedError

    def left_sibling(self, node_id):
        raise NotImplementedError

    def right_sibling(self, node_id):
        raise NotImplementedError

    def order_key(self, node_id):
        """Sortable key realizing document order over targets."""
        raise NotImplementedError

    def interval(self, node_id):
        """``(lo, hi)`` with the containment property: ``v1`` is a proper
        descendant of ``v2`` iff ``lo2 < lo1`` and ``hi1 < hi2``."""
        raise NotImplementedError

    # -- derived predicates (Table 1) ---------------------------------------

    def is_attribute(self, node_id):
        return self.node_type(node_id) is NodeType.ATTRIBUTE

    def is_descendant(self, node_id, ancestor_id):
        """``v1 //d v2``."""
        lo1, hi1 = self.interval(node_id)
        lo2, hi2 = self.interval(ancestor_id)
        return lo2 < lo1 and hi1 < hi2

    def is_child(self, node_id, parent_id):
        """``v1 /c v2``."""
        return (not self.is_attribute(node_id)
                and self.parent(node_id) == parent_id)

    def is_attribute_of(self, node_id, element_id):
        """``v1 /a v2``."""
        return (self.is_attribute(node_id)
                and self.parent(node_id) == element_id)

    def is_left_sibling(self, node_id, other_id):
        """``v1 s v2``."""
        return self.left_sibling(other_id) == node_id

    def is_first_child(self, node_id, parent_id):
        """``v1 /<-c v2``."""
        return (self.is_child(node_id, parent_id)
                and self.left_sibling(node_id) is None)

    def is_last_child(self, node_id, parent_id):
        """``v1 /->c v2``."""
        return (self.is_child(node_id, parent_id)
                and self.right_sibling(node_id) is None)

    def is_nonattr_descendant(self, node_id, ancestor_id):
        """``v1 //¬a_d v2``: descendant but not an attribute of v2 — the
        nodes wiped by a ``repC`` on v2."""
        return (self.is_descendant(node_id, ancestor_id)
                and not self.is_attribute_of(node_id, ancestor_id))


class LabelOracle(StructuralOracle):
    """Oracle over a ``node id -> ExtendedLabel`` mapping (e.g.
    ``pul.labels``)."""

    def __init__(self, labels):
        self._labels = dict(labels)

    def _label(self, node_id):
        try:
            return self._labels[node_id]
        except KeyError:
            raise ReproError(
                "no structural information for node {} — the PUL does not "
                "carry its label".format(node_id)) from None

    def node_type(self, node_id):
        return self._label(node_id).node_type

    def parent(self, node_id):
        return self._label(node_id).parent_id

    def left_sibling(self, node_id):
        return self._label(node_id).left_sibling_id

    def right_sibling(self, node_id):
        return self._label(node_id).right_sibling_id

    def order_key(self, node_id):
        return self._label(node_id).start

    def interval(self, node_id):
        label = self._label(node_id)
        return (label.start, label.end)


class DocumentOracle(StructuralOracle):
    """Oracle over a live document (local reasoning / test cross-checks).

    Structural facts are snapshotted eagerly, so the oracle keeps answering
    about the *original* document even while an evaluator mutates it.
    """

    def __init__(self, document):
        self._types = {}
        self._parents = {}
        self._lefts = {}
        self._rights = {}
        self._intervals = {}
        counter = 0
        if document.root is None:
            return
        # (node, its parent, closing)
        stack = [(document.root, None, False)]
        open_marks = {}
        while stack:
            node, parent, closing = stack.pop()
            if closing:
                self._intervals[node.node_id] = (
                    open_marks.pop(node.node_id), counter)
                counter += 1
                continue
            open_marks[node.node_id] = counter
            counter += 1
            stack.append((node, parent, True))
            if node.is_element:
                for attr in node.attributes:
                    self._intervals[attr.node_id] = (counter, counter + 1)
                    counter += 2
                    self._register(attr, node)
                for child in reversed(node.children):
                    stack.append((child, node, False))
            self._register(node, parent)

    def _register(self, node, parent):
        self._types[node.node_id] = node.node_type
        self._parents[node.node_id] = \
            parent.node_id if parent is not None else None
        left = right = None
        if parent is not None and not node.is_attribute:
            siblings = parent.children
            index = siblings.index(node)
            if index > 0:
                left = siblings[index - 1].node_id
            if index + 1 < len(siblings):
                right = siblings[index + 1].node_id
        self._lefts[node.node_id] = left
        self._rights[node.node_id] = right

    def _lookup(self, table, node_id):
        try:
            return table[node_id]
        except KeyError:
            raise ReproError(
                "node {} not in the oracle's document".format(
                    node_id)) from None

    def node_type(self, node_id):
        return self._lookup(self._types, node_id)

    def parent(self, node_id):
        return self._lookup(self._parents, node_id)

    def left_sibling(self, node_id):
        return self._lookup(self._lefts, node_id)

    def right_sibling(self, node_id):
        return self._lookup(self._rights, node_id)

    def order_key(self, node_id):
        return self._lookup(self._intervals, node_id)[0]

    def interval(self, node_id):
        return self._lookup(self._intervals, node_id)


def oracle_for(source):
    """Build the right oracle: a PUL/label mapping, a document, several
    PULs (their label unions), or an oracle passed through unchanged."""
    from repro.pul.pul import PUL
    from repro.xdm.document import Document

    if isinstance(source, StructuralOracle):
        return source
    if isinstance(source, Document):
        return DocumentOracle(source)
    if isinstance(source, PUL):
        return LabelOracle(source.labels)
    if isinstance(source, dict):
        return LabelOracle(source)
    if isinstance(source, (list, tuple)):
        labels = {}
        for pul in source:
            labels.update(pul.labels)
        return LabelOracle(labels)
    raise TypeError("cannot build an oracle from {!r}".format(source))
