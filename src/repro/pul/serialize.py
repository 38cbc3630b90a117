"""The PUL exchange format (contribution (i) of the paper).

PULs are represented as XML documents containing the serialization of each
operation together with the identifier and extended label of its target
node, so that a remote executor (or another producer) can reason on the PUL
without the document.

Parameter trees are serialized inline. Nodes that carry identifiers (the
producer-assigned ids of new nodes, which later PULs of a sequence may
reference — Section 4.1) keep them on the wire:

* elements carry a reserved ``repro:id`` attribute;
* identified text nodes are wrapped as ``<repro:text repro:id="..">``;
* identified attribute nodes are hoisted to ``<repro:attr>`` wrapper
  children (inline XML attributes cannot carry per-attribute metadata).

Example::

    <pul producer="alice">
      <op name="insertAfter" target="7" label="7;e;0101;011;2;4;5;9">
        <author repro:id="1000000000">G. Guerrini</author>
      </op>
      <op name="rename" target="5" label="..." value="title"/>
    </pul>

Both directions work on text without an intermediate tree of the
envelope: :func:`pul_to_xml` writes parts, :func:`pul_from_xml` reads the
tokens of the shared XML scanner (:mod:`repro.xdm.parser`) and builds
each parameter tree — wrappers and ``repro:id`` resolved — as its tokens
arrive. Anything but the format above is a :class:`SerializationError`
(identifiers and targets are ``[0-9]+``); XML that is not well-formed is
the scanner's :class:`~repro.errors.XMLSyntaxError`.
"""

from __future__ import annotations

from repro.errors import SerializationError
from repro.labeling.containment import ExtendedLabel
from repro.pul.ops import (
    OPERATION_TYPES,
    Delete,
    Rename,
    ReplaceChildren,
    ReplaceValue,
)
from repro.pul.pul import PUL
from repro.xdm.node import Node
from repro.xdm.parser import _END, _TEXT, _document_tokens
from repro.xdm.serializer import (
    ID_ATTRIBUTE,
    escape_attribute,
    escape_text,
)

_ATTR_WRAPPER = "repro:attr"
_TEXT_WRAPPER = "repro:text"


def tree_to_xml(node):
    """Serialize one tree in the exchange-format representation.

    Unlike :func:`repro.xdm.serializer.serialize_node`, identifiers of
    *every* node kind survive (text nodes are wrapped as ``repro:text``,
    identified attributes hoisted as ``repro:attr``): the form a
    parameter tree takes inside :func:`pul_to_xml`, and a text in which
    two trees compare together with their ids.
    """
    parts = []
    _write_tree(node, parts, top=True)
    return "".join(parts)


# -- writing -------------------------------------------------------------------


def _write_tree(node, parts, top=False):
    if node.is_text:
        # top-level text parameters are always wrapped, so whitespace-only
        # values survive the round trip unambiguously
        if node.node_id is None and not top:
            parts.append(escape_text(node.value))
        else:
            parts.append("<{}".format(_TEXT_WRAPPER))
            if node.node_id is not None:
                parts.append(' {}="{}"'.format(ID_ATTRIBUTE, node.node_id))
            parts.append(">")
            parts.append(escape_text(node.value))
            parts.append("</{}>".format(_TEXT_WRAPPER))
        return
    if node.is_attribute:
        parts.append('<{} name="{}" value="{}"'.format(
            _ATTR_WRAPPER, escape_attribute(node.name),
            escape_attribute(node.value)))
        if node.node_id is not None:
            parts.append(' {}="{}"'.format(ID_ATTRIBUTE, node.node_id))
        parts.append("/>")
        return
    parts.append("<")
    parts.append(node.name)
    if node.node_id is not None:
        parts.append(' {}="{}"'.format(ID_ATTRIBUTE, node.node_id))
    hoisted = []
    for attr in node.attributes:
        if attr.node_id is None:
            parts.append(' {}="{}"'.format(
                attr.name, escape_attribute(attr.value)))
        else:
            hoisted.append(attr)
    if not node.children and not hoisted:
        parts.append("/>")
        return
    parts.append(">")
    for attr in hoisted:
        _write_tree(attr, parts)
    for child in node.children:
        _write_tree(child, parts)
    parts.append("</")
    parts.append(node.name)
    parts.append(">")


def pul_to_xml(pul):
    """Serialize ``pul`` (operations + target labels) to XML text."""
    parts = ["<pul"]
    if pul.origin is not None:
        parts.append(' producer="{}"'.format(
            escape_attribute(str(pul.origin))))
    parts.append(">")
    for op in pul:
        parts.append('<op name="{}" target="{}"'.format(
            op.op_name, op.target))
        label = pul.labels.get(op.target)
        if label is not None:
            parts.append(' label="{}"'.format(
                escape_attribute(label.to_string())))
        if isinstance(op, (ReplaceValue, Rename)):
            parts.append(' value="{}"'.format(
                escape_attribute(op.parameter())))
        if isinstance(op, ReplaceChildren) and not op.strict:
            parts.append(' strict="false"')
        if op.has_trees:
            parts.append(">")
            for tree in op.trees:
                _write_tree(tree, parts, top=True)
            parts.append("</op>")
        else:
            parts.append("/>")
    parts.append("</pul>")
    return "".join(parts)


# -- reading -------------------------------------------------------------------


def _identifier(text):
    """A node identifier off the wire: ASCII digits, nothing else."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # more digits than int() converts
        pass
    raise SerializationError(
        "not a node identifier: {!r}".format(text[:40]))


def _build_trees(tokens):
    """Build parameter trees straight off the token stream, up to the end
    tag of the element the stream is inside (or to the stream's end),
    resolving ``repro:id``, ``repro:text`` and ``repro:attr`` as the
    tokens arrive."""
    trees = []
    path = []  # the open nodes: elements, and wrappers as what they wrap
    for kind, value, extra in tokens:
        parent = path[-1] if path else None
        if kind == _END:
            if parent is None:
                break
            path.pop()
        elif kind == _TEXT:
            if parent is None:
                # between trees only whitespace-only text is formatting
                if value.strip():
                    trees.append(Node.text(value))
            elif parent.is_element:
                parent.append_child(Node.text(value))
            elif parent.is_text:
                parent.value = value
            else:
                raise SerializationError("content in a repro:attr wrapper")
        else:
            if parent is not None and not parent.is_element:
                raise SerializationError(
                    "<{}> inside a wrapper element".format(value))
            if value == _TEXT_WRAPPER or value == _ATTR_WRAPPER:
                if value == _TEXT_WRAPPER:
                    node = Node.text("")
                elif "name" in extra:
                    node = Node.attribute(extra["name"],
                                          extra.get("value", ""))
                else:
                    raise SerializationError(
                        "repro:attr wrapper without a name")
                if ID_ATTRIBUTE in extra:
                    node.node_id = _identifier(extra[ID_ATTRIBUTE])
            else:
                node = Node.element(value)
                for name, attr_value in extra.items():
                    if name == ID_ATTRIBUTE:
                        node.node_id = _identifier(attr_value)
                    else:
                        node.append_attribute(
                            Node.attribute(name, attr_value))
            if parent is None:
                trees.append(node)
            elif node.is_attribute:
                parent.append_attribute(node)
            else:
                parent.append_child(node)
            path.append(node)
    return trees


def pul_from_xml(text):
    """Parse a PUL exchange document back into a :class:`PUL`."""
    # our own serializer emits no inter-element whitespace, so whitespace
    # can be kept verbatim — it only matters inside <repro:text> wrappers
    tokens = _document_tokens(text, True)
    __, root, root_attrs = next(tokens)
    if root != "pul":
        raise SerializationError(
            "expected <pul> root, got <{}>".format(root))
    operations = []
    labels = {}
    for kind, value, attrs in tokens:
        if kind == _END:  # of <pul>: the stream ends, or raises, next
            continue
        if kind == _TEXT:
            if value.strip():
                raise SerializationError(
                    "text between the operations of a PUL")
            continue
        if value != "op":
            raise SerializationError(
                "unexpected element <{}> in PUL".format(value))
        if "name" not in attrs or "target" not in attrs:
            raise SerializationError(
                "operation element without a name or a target")
        op_class = OPERATION_TYPES.get(attrs["name"])
        if op_class is None:
            raise SerializationError(
                "unknown operation name: {!r}".format(attrs["name"]))
        target = _identifier(attrs["target"])
        if "label" in attrs:
            try:
                labels[target] = ExtendedLabel.from_string(attrs["label"])
            except ValueError as exc:
                raise SerializationError(
                    "malformed label: {}".format(exc)) from exc
        trees = _build_trees(tokens)
        if op_class is Delete:
            operations.append(Delete(target))
        elif op_class is ReplaceValue or op_class is Rename:
            operations.append(op_class(target, attrs.get("value", "")))
        elif op_class is ReplaceChildren:
            strict = attrs.get("strict", "true") != "false"
            operations.append(ReplaceChildren(target, trees, strict=strict))
        else:
            operations.append(op_class(target, trees))
    return PUL(operations, labels=labels,
               origin=root_attrs.get("producer"))
