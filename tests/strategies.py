"""Hypothesis strategies: random documents and random applicable PULs.

Documents are small labeled trees (bounded depth/fan-out) over a tiny name
alphabet, which keeps obtainable-set enumeration tractable while still
exercising attributes, text and nesting. PULs are drawn against a concrete
document so that applicability (Definition 4) holds by construction.
"""

from __future__ import annotations

from hypothesis import strategies as st

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
from repro.xdm.document import Document
from repro.xdm.node import Node

_NAMES = ("a", "b", "c", "d", "e")
_VALUES = ("x", "y", "z", "")


@st.composite
def documents(draw, max_depth=3, max_children=3):
    """A random small document.

    The tree is normalized through a serialize/parse round trip so that it
    is *serialization-stable* (no adjacent text nodes that would merge on
    the wire and shift identifiers) — tests freely move between the tree
    and its text form.
    """

    def build(depth):
        element = Node.element(draw(st.sampled_from(_NAMES)))
        for index in range(draw(st.integers(0, 2))):
            element.append_attribute(Node.attribute(
                "k{}".format(index), draw(st.sampled_from(_VALUES))))
        if depth < max_depth:
            previous_text = False
            for __ in range(draw(st.integers(0, max_children))):
                if draw(st.booleans()):
                    element.append_child(build(depth + 1))
                    previous_text = False
                elif not previous_text:
                    element.append_child(Node.text(
                        draw(st.sampled_from(_VALUES)) or "t"))
                    previous_text = True
        return element

    from repro.xdm.parser import parse_document
    from repro.xdm.serializer import serialize
    return parse_document(serialize(Document(root=build(0))))


@st.composite
def parameter_forests(draw, allow_empty=False, stamp_ids_from=None):
    """A forest of 1-2 small non-attribute trees."""
    trees = []
    count = draw(st.integers(0 if allow_empty else 1, 2))
    for __ in range(count):
        if draw(st.booleans()):
            element = Node.element(draw(st.sampled_from(_NAMES)))
            if draw(st.booleans()):
                element.append_child(Node.text("v"))
            trees.append(element)
        else:
            trees.append(Node.text(draw(st.sampled_from(("p", "q")))))
    return trees


@st.composite
def applicable_puls(draw, document, max_ops=6, stamp_ids=False,
                    include_into=True):
    """A PUL applicable on ``document`` (targets drawn from its nodes,
    replacement-class uniqueness respected, unique attribute names).

    ``stamp_ids=True`` assigns fresh identifiers to all parameter nodes
    (the producer-side assignment of Section 4.1), enabling follow-up PULs
    and aggregation tests to reference new nodes.
    """
    nodes = list(document.nodes())
    elements = [n for n in nodes if n.is_element]
    non_root = [n for n in nodes
                if n is not document.root and not n.is_attribute]
    texts_attrs = [n for n in nodes if n.is_text or n.is_attribute]
    attributes = [n for n in nodes if n.is_attribute]

    used_replace = set()
    ops = []
    serial = {"attr": 0, "id": max(document.node_ids(), default=0) + 100}

    def stamp(trees):
        if not stamp_ids:
            return trees
        for tree in trees:
            for node in tree.iter_subtree():
                node.node_id = serial["id"]
                serial["id"] += 1
        return trees

    kinds = ["ins_before", "ins_after", "ins_first", "ins_last",
             "ins_attr", "delete", "rep_node", "rep_value",
             "rep_children", "rename"]
    if include_into:
        kinds.append("ins_into")

    for __ in range(draw(st.integers(0, max_ops))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("ins_before", "ins_after") and non_root:
            target = draw(st.sampled_from(non_root))
            trees = stamp(draw(parameter_forests()))
            op_class = InsertBefore if kind == "ins_before" else InsertAfter
            ops.append(op_class(target.node_id, trees))
        elif kind in ("ins_first", "ins_last", "ins_into") and elements:
            target = draw(st.sampled_from(elements))
            trees = stamp(draw(parameter_forests()))
            op_class = {"ins_first": InsertIntoAsFirst,
                        "ins_last": InsertIntoAsLast,
                        "ins_into": InsertInto}[kind]
            ops.append(op_class(target.node_id, trees))
        elif kind == "ins_attr" and elements:
            target = draw(st.sampled_from(elements))
            serial["attr"] += 1
            attr = Node.attribute("g{}".format(serial["attr"]), "w")
            ops.append(InsertAttributes(target.node_id, stamp([attr])))
        elif kind == "delete" and non_root:
            target = draw(st.sampled_from(non_root + attributes))
            ops.append(Delete(target.node_id))
        elif kind == "rep_node" and non_root:
            target = draw(st.sampled_from(non_root))
            if ("replaceNode", target.node_id) in used_replace:
                continue
            used_replace.add(("replaceNode", target.node_id))
            trees = stamp(draw(parameter_forests(allow_empty=True)))
            ops.append(ReplaceNode(target.node_id, trees))
        elif kind == "rep_value" and texts_attrs:
            target = draw(st.sampled_from(texts_attrs))
            if ("replaceValue", target.node_id) in used_replace:
                continue
            used_replace.add(("replaceValue", target.node_id))
            ops.append(ReplaceValue(target.node_id,
                                    draw(st.sampled_from(("nv", "")))))
        elif kind == "rep_children" and elements:
            target = draw(st.sampled_from(elements))
            if ("replaceChildren", target.node_id) in used_replace:
                continue
            used_replace.add(("replaceChildren", target.node_id))
            content = draw(st.sampled_from(("rc", "")))
            trees = stamp([Node.text(content)]) if content else []
            ops.append(ReplaceChildren(target.node_id, trees))
        elif kind == "rename":
            pool = elements + attributes
            target = draw(st.sampled_from(pool))
            if ("rename", target.node_id) in used_replace:
                continue
            used_replace.add(("rename", target.node_id))
            ops.append(Rename(target.node_id,
                              draw(st.sampled_from(("rn1", "rn2")))))
    return PUL(ops)


#: origins exercising the attribute-escaping path of the exchange format
_ORIGINS = (None, "alice", "bob-7", 'pro"ducer', "a&b<c>d", "  spaced  ")

#: values exercising text/attribute escaping on the wire
_WIRE_VALUES = ('', 'plain', 'a&b', '<tag>', '"quoted"', "it's",
                'mixed &<>"\' end', '  leading and trailing  ', '\t\n')


@st.composite
def wire_puls(draw, max_ops=6):
    """A PUL as it travels on the wire: applicable on some document,
    optionally producer-stamped parameter ids, target labels attached,
    and an origin/value mix that exercises the XML escaping paths."""
    from repro.labeling import ContainmentLabeling

    document = draw(documents())
    pul = draw(applicable_puls(document, max_ops=max_ops,
                               stamp_ids=draw(st.booleans())))
    if draw(st.booleans()):
        labeling = ContainmentLabeling().build(document)
        pul.attach_labels(labeling)
    pul.origin = draw(st.sampled_from(_ORIGINS))
    for op in pul:
        if isinstance(op, ReplaceValue) and draw(st.booleans()):
            op.value = draw(st.sampled_from(_WIRE_VALUES))
    return pul
