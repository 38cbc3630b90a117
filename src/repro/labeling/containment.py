"""Extended Zhang containment labels: the form a label travels in.

A node's containment label is the pair of codes ``(start, end)``; an
ancestor's interval strictly contains every descendant's interval and
document order coincides with ``start`` order.

Per Section 4.1, plain containment cannot decide the left-sibling
relationship nor tell attributes from children, so the paper extends the
label with the node type and the identifier of the left sibling. We
additionally record the level and the parent and right-sibling
identifiers, which makes the first-child / last-child predicates
(``/<-c`` and ``/->c`` of Table 1) constant-time lookups as well.

An :class:`ExtendedLabel` is the exchange form: what a PUL carries so
that it can be reasoned about without the document, on the wire and in
the log. A resident labeling keeps a node's two codes as integers in
two columns indexed by node id
(:class:`~repro.labeling.scheme.ContainmentLabeling`); the codes go
back to digit strings, and the other fields are read off the tree,
when a label is made to travel
(:meth:`~repro.labeling.scheme.ContainmentLabeling.exchange_label`).
"""

from __future__ import annotations

from repro.errors import LabelingError
from repro.xdm.node import NodeType

#: sentinel encoding "no sibling" in the serialized form
_NONE = "-"

#: the node type of each type letter of the serialized form
_NODE_TYPES = {node_type.value: node_type for node_type in NodeType}


class ExtendedLabel:
    """Immutable-by-convention label of a document node.

    Attributes
    ----------
    node_id: identifier of the labeled node.
    node_type: :class:`~repro.xdm.node.NodeType` of the node.
    start, end: containment codes (digit strings, lexicographic order).
    level: depth of the node (document root at level 0).
    parent_id: identifier of the parent node (``None`` for the root).
    left_sibling_id / right_sibling_id:
        identifiers of the adjacent non-attribute siblings (``None`` when
        absent, and always ``None`` for attributes).
    """

    __slots__ = ("node_id", "node_type", "start", "end", "level",
                 "parent_id", "left_sibling_id", "right_sibling_id")

    def __init__(self, node_id, node_type, start, end, level,
                 parent_id=None, left_sibling_id=None,
                 right_sibling_id=None):
        if not start < end:
            raise LabelingError(
                "label interval is empty: [{!r}, {!r}]".format(start, end))
        self.node_id = node_id
        self.node_type = node_type
        self.start = start
        self.end = end
        self.level = level
        self.parent_id = parent_id
        self.left_sibling_id = left_sibling_id
        self.right_sibling_id = right_sibling_id

    # -- serialization (labels travel inside PUL documents) ----------------

    def to_string(self):
        """Compact textual form used in the PUL exchange format."""
        fields = [
            str(self.node_id),
            self.node_type.value,
            self.start,
            self.end,
            str(self.level),
            _NONE if self.parent_id is None else str(self.parent_id),
            _NONE if self.left_sibling_id is None
            else str(self.left_sibling_id),
            _NONE if self.right_sibling_id is None
            else str(self.right_sibling_id),
        ]
        return ";".join(fields)

    @classmethod
    def from_string(cls, text):
        parts = text.split(";")
        if len(parts) != 8:
            raise LabelingError("malformed label: {!r}".format(text))
        (node_id, letter, start, end, level, parent_id, left_sibling_id,
         right_sibling_id) = parts
        node_type = _NODE_TYPES.get(letter)
        if node_type is None:
            node_type = NodeType.from_code(letter)  # raises its error
        return cls(
            int(node_id), node_type, start, end, int(level),
            None if parent_id == _NONE else int(parent_id),
            None if left_sibling_id == _NONE else int(left_sibling_id),
            None if right_sibling_id == _NONE else int(right_sibling_id),
        )

    def __eq__(self, other):
        if not isinstance(other, ExtendedLabel):
            return NotImplemented
        return all(getattr(self, slot) == getattr(other, slot)
                   for slot in self.__slots__)

    def __hash__(self):
        return hash((self.node_id, self.start, self.end))

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return "ExtendedLabel({})".format(self.to_string())
