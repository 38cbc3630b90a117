"""Navigation helpers: document order, axes and structural predicates.

These operate on a document's live tree: its children lists, and its
parent map for the way up (:meth:`repro.xdm.document.Document.parent`),
so each takes the document first. The reasoning modules never use them —
they work on labels only (see :mod:`repro.labeling`) — but the test
oracles do: the test suite cross-checks every Table 1 predicate computed
from labels against the tree-based implementation found here.
"""

from __future__ import annotations


def document_position(document, node):
    """Return the path of child indexes from the root to ``node``.

    Attribute nodes sort right after their owner element, keyed by their
    position in the attribute list (the relative order of attributes is not
    semantically relevant, but a total order is convenient for canonical
    output). Tuples compare lexicographically, yielding document order.
    """
    path = []
    current = node
    parent = document.parent(current)
    while parent is not None:
        if current.is_attribute:
            path.append((0, parent.attributes.index(current)))
        else:
            path.append((1, parent.children.index(current)))
        current, parent = parent, document.parent(parent)
    path.reverse()
    return tuple(path)


def compare_document_order(document, node1, node2):
    """Return -1/0/1 as ``node1`` precedes/equals/follows ``node2``."""
    pos1 = document_position(document, node1)
    pos2 = document_position(document, node2)
    if pos1 < pos2:
        return -1
    if pos1 > pos2:
        return 1
    return 0


def precedes(document, node1, node2):
    """``node1`` strictly precedes ``node2`` in document order."""
    return compare_document_order(document, node1, node2) < 0


def is_ancestor(document, ancestor, descendant):
    """``ancestor`` is a proper ancestor of ``descendant``."""
    current = document.parent(descendant)
    while current is not None:
        if current is ancestor:
            return True
        current = document.parent(current)
    return False


def is_parent(document, parent, child):
    """``parent`` is the parent of ``child`` (child axis, not attributes)."""
    return document.parent(child) is parent and not child.is_attribute


def is_attribute_of(document, attr, element):
    """``attr`` is an attribute node of ``element``."""
    return attr.is_attribute and document.parent(attr) is element


def adjacent_siblings(document, node):
    """The siblings immediately preceding and following ``node``
    (``None`` where there is none), from one scan of the parent's
    children."""
    parent = document.parent(node)
    if parent is None or node.is_attribute:
        return None, None
    children = parent.children
    index = children.index(node)
    return (children[index - 1] if index else None,
            children[index + 1] if index + 1 < len(children) else None)


def left_sibling(document, node):
    """The sibling immediately preceding ``node``, or ``None``."""
    return adjacent_siblings(document, node)[0]


def right_sibling(document, node):
    """The sibling immediately following ``node``, or ``None``."""
    return adjacent_siblings(document, node)[1]


def is_left_sibling(document, node1, node2):
    """``node1 s node2``: ``node1`` is the left sibling of ``node2``."""
    return left_sibling(document, node2) is node1


def is_first_child(document, node):
    """``node`` is the first (non-attribute) child of its parent."""
    parent = document.parent(node)
    return (parent is not None and not node.is_attribute
            and parent.children and parent.children[0] is node)


def is_last_child(document, node):
    """``node`` is the last (non-attribute) child of its parent."""
    parent = document.parent(node)
    return (parent is not None and not node.is_attribute
            and parent.children and parent.children[-1] is node)


def depth(document, node):
    """Number of ancestors of ``node`` (root has depth 0)."""
    count = 0
    parent_id = document.parent_id(node.node_id)
    while parent_id is not None:
        count += 1
        parent_id = document.parent_id(parent_id)
    return count
