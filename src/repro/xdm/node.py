"""Tree nodes of the XML data model.

The paper models a document as a labeled tree over three node kinds
(Section 2.1): elements (``e``), attributes (``a``) and text nodes (``t``).
Coherently with XDM, an attribute's value is a property of the attribute
node itself, while the textual content of an element is modeled by separate
text-node children.

A tree points downwards only, as the paper's ``gamma`` does: a node holds
its children and attributes and knows nothing of where it hangs. The
parent of a node of a document is the document's to answer
(:meth:`repro.xdm.document.Document.parent`); a walk from a root knows
it as it goes (:meth:`Node.iter_with_parents`). So no tree holds a
reference cycle, and a tree nothing refers to is freed at once.

A node holds only what it has. An empty child or attribute sequence is
the one shared empty tuple ``()``, so a leaf holds no list; the first
child or attribute gives the node a list of its own. So an edit grows
a node only through :meth:`Node.append_child`, :meth:`Node.insert_child`
and :meth:`Node.append_attribute` (the builders — the parser, the
snapshot restore, the path copy — hand a node its finished list). An edit
may remove from a list in place, and gives a list it empties back as
``()``.
"""

from __future__ import annotations

import enum

from repro.errors import DocumentError


class NodeType(enum.Enum):
    """The three node kinds of the model (``tau`` in the paper)."""

    ELEMENT = "e"
    ATTRIBUTE = "a"
    TEXT = "t"

    def __str__(self):
        return self.value

    @classmethod
    def from_code(cls, code):
        """Return the node type for a one-letter code (``e``/``a``/``t``)."""
        try:
            return cls(code)
        except ValueError:
            raise DocumentError(
                "unknown node type code: {!r}".format(code)) from None


class Node:
    """A single node of a document tree (or of a detached fragment).

    Attributes
    ----------
    node_id:
        Unique, immutable identifier. ``None`` for nodes not yet attached to
        a :class:`~repro.xdm.document.Document` (e.g. nodes of the parameter
        trees of an update operation before application).
    node_type:
        One of :class:`NodeType`.
    name:
        Element/attribute name (``lambda``); ``None`` for text nodes.
    value:
        Text/attribute value (``nu``); ``None`` for elements.
    children:
        Ordered non-attribute children (elements and text nodes): a
        list, or ``()`` when there are none.
    attributes:
        Attribute children, in insertion order (their relative order is not
        semantically relevant): a list, or ``()`` when there are none.
    """

    __slots__ = (
        "node_id", "node_type", "name", "value", "children", "attributes",
    )

    def __init__(self, node_type, name=None, value=None, node_id=None):
        if node_type is NodeType.ELEMENT:
            if name is None:
                raise DocumentError("element nodes require a name")
            if value is not None:
                raise DocumentError("element nodes carry no value")
        elif node_type is NodeType.ATTRIBUTE:
            if name is None:
                raise DocumentError("attribute nodes require a name")
            if value is None:
                value = ""
        elif node_type is NodeType.TEXT:
            if name is not None:
                raise DocumentError("text nodes carry no name")
            if value is None:
                value = ""
        else:
            raise DocumentError("unknown node type: {!r}".format(node_type))
        self.node_id = node_id
        self.node_type = node_type
        self.name = name
        self.value = value
        self.children = ()
        self.attributes = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def element(cls, name, node_id=None):
        """Create a detached element node."""
        return cls(NodeType.ELEMENT, name=name, node_id=node_id)

    @classmethod
    def text(cls, value, node_id=None):
        """Create a detached text node."""
        return cls(NodeType.TEXT, value=value, node_id=node_id)

    @classmethod
    def attribute(cls, name, value, node_id=None):
        """Create a detached attribute node."""
        return cls(NodeType.ATTRIBUTE, name=name, value=value,
                   node_id=node_id)

    # -- predicates --------------------------------------------------------

    @property
    def is_element(self):
        return self.node_type is NodeType.ELEMENT

    @property
    def is_attribute(self):
        return self.node_type is NodeType.ATTRIBUTE

    @property
    def is_text(self):
        return self.node_type is NodeType.TEXT

    # -- structure editing (used by the evaluators) ------------------------

    def append_child(self, child):
        """Attach ``child`` (element or text) as last child."""
        self._check_child(child)
        if self.children:
            self.children.append(child)
        else:
            self.children = [child]
        return child

    def insert_child(self, index, child):
        """Attach ``child`` (element or text) at ``index``."""
        self._check_child(child)
        if self.children:
            self.children.insert(index, child)
        else:
            self.children = [child]
        return child

    def append_attribute(self, attr):
        """Attach ``attr`` as an attribute of this element."""
        if not self.is_element:
            raise DocumentError("only elements hold attributes")
        if not attr.is_attribute:
            raise DocumentError("append_attribute requires an attribute")
        if self.attributes:
            self.attributes.append(attr)
        else:
            self.attributes = [attr]
        return attr

    def _check_child(self, child):
        if not self.is_element:
            raise DocumentError("only elements hold children")
        if child.is_attribute:
            raise DocumentError(
                "attributes must be attached with append_attribute")

    # -- traversal ---------------------------------------------------------

    def iter_subtree(self, include_attributes=True):
        """Yield this node and its descendants in document order.

        Attributes of an element are yielded right after the element itself
        (their relative order among themselves is insertion order).
        """
        stack = [self]
        pop, extend = stack.pop, stack.extend
        element = NodeType.ELEMENT
        while stack:
            node = pop()
            yield node
            if node.node_type is element:
                if include_attributes:
                    yield from node.attributes
                extend(reversed(node.children))

    def iter_with_parents(self, parent=None):
        """Yield ``(node, its parent)`` for this node and its descendants,
        attributes included, in the order of :meth:`iter_subtree`;
        ``parent`` is what this node's own parent is given as."""
        stack = [(self, parent)]
        pop, push = stack.pop, stack.append
        while stack:
            node, parent = pop()
            yield node, parent
            if node.node_type is NodeType.ELEMENT:
                for attr in node.attributes:
                    yield attr, node
                children = node.children
                for index in range(len(children) - 1, -1, -1):
                    push((children[index], node))

    def descendants(self, include_attributes=True):
        """Yield the proper descendants of this node in document order."""
        iterator = self.iter_subtree(include_attributes=include_attributes)
        next(iterator)  # skip self
        yield from iterator

    def string_value(self):
        """XDM string value: concatenation of descendant text, or the value
        of a text/attribute node."""
        if not self.is_element:
            return self.value
        parts = []
        for node in self.iter_subtree(include_attributes=False):
            if node.is_text:
                parts.append(node.value)
        return "".join(parts)

    # -- copying -----------------------------------------------------------

    def shallow_copy(self):
        """A detached copy of this node alone: same id, kind, name and
        value, and no children or attributes."""
        copy = Node.__new__(Node)
        copy.node_id = self.node_id
        copy.node_type = self.node_type
        copy.name = self.name
        copy.value = self.value
        copy.children = copy.attributes = ()
        return copy

    def deep_copy(self, keep_ids=False):
        """Return a detached deep copy of this subtree.

        By default the copies carry no node ids (they represent *new*
        content); ``keep_ids=True`` preserves them (used when moving
        already-identified trees between PULs during aggregation).
        """
        copy = Node(self.node_type, name=self.name,
                    value=None if self.is_element else self.value,
                    node_id=self.node_id if keep_ids else None)
        if self.is_element:
            # XQUF ``replace value of`` on an element stores its text on
            # the node's value slot (invisible to serialization); a copy
            # must carry it faithfully or re-copying an updated tree
            # fails the constructor's freshness check
            copy.value = self.value
            for attr in self.attributes:
                copy.append_attribute(attr.deep_copy(keep_ids=keep_ids))
            for child in self.children:
                copy.append_child(child.deep_copy(keep_ids=keep_ids))
        return copy

    # -- debugging ---------------------------------------------------------

    def __repr__(self):
        if self.is_element:
            detail = "<{}>".format(self.name)
        elif self.is_attribute:
            detail = "@{}={!r}".format(self.name, self.value)
        else:
            detail = "text={!r}".format(self.value)
        return "Node(id={}, {})".format(self.node_id, detail)
