"""Tree nodes of the XML data model.

The paper models a document as a labeled tree over three node kinds
(Section 2.1): elements (``e``), attributes (``a``) and text nodes (``t``).
Coherently with XDM, an attribute's value is a property of the attribute
node itself, while the textual content of an element is modeled by separate
text-node children.
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
        Ordered non-attribute children (elements and text nodes).
    attributes:
        Attribute children, in insertion order (their relative order is not
        semantically relevant).
    parent:
        Back pointer to the parent node, ``None`` for roots.
    """

    __slots__ = (
        "node_id", "node_type", "name", "value",
        "children", "attributes", "parent",
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
        self.children = []
        self.attributes = []
        self.parent = None

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
        child.parent = self
        self.children.append(child)
        return child

    def insert_child(self, index, child):
        """Attach ``child`` (element or text) at ``index``."""
        self._check_child(child)
        child.parent = self
        self.children.insert(index, child)
        return child

    def append_attribute(self, attr):
        """Attach ``attr`` as an attribute of this element."""
        if not self.is_element:
            raise DocumentError("only elements hold attributes")
        if not attr.is_attribute:
            raise DocumentError("append_attribute requires an attribute")
        attr.parent = self
        self.attributes.append(attr)
        return attr

    def detach(self):
        """Remove this node from its parent (no-op when detached)."""
        parent = self.parent
        if parent is None:
            return self
        if self.is_attribute:
            parent.attributes.remove(self)
        else:
            parent.children.remove(self)
        self.parent = None
        return self

    def child_index(self):
        """Position of this node among its parent's children.

        Raises :class:`DocumentError` for detached or attribute nodes.
        """
        if self.parent is None or self.is_attribute:
            raise DocumentError("node has no child position")
        return self.parent.children.index(self)

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
        while stack:
            node = stack.pop()
            yield node
            if node.is_element:
                if include_attributes:
                    yield from node.attributes
                stack.extend(reversed(node.children))

    def descendants(self, include_attributes=True):
        """Yield the proper descendants of this node in document order."""
        iterator = self.iter_subtree(include_attributes=include_attributes)
        next(iterator)  # skip self
        yield from iterator

    def ancestors(self):
        """Yield the proper ancestors of this node, nearest first."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

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
        value, and empty child and attribute lists of its own."""
        copy = Node.__new__(Node)
        copy.node_id = self.node_id
        copy.node_type = self.node_type
        copy.name = self.name
        copy.value = self.value
        copy.children = []
        copy.attributes = []
        copy.parent = None
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
