"""Tests for the PUL exchange format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError, XMLSyntaxError
from repro.labeling import ContainmentLabeling
from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertIntoAsLast,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
)
from repro.pul.pul import PUL
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.xdm.node import Node
from repro.xdm.parser import parse_forest

from tests.strategies import applicable_puls, documents


def roundtrip(pul):
    return pul_from_xml(pul_to_xml(pul))


class TestRoundtrip:
    def test_all_operation_kinds(self):
        pul = PUL([
            InsertAfter(3, parse_forest("<w>ww</w>")),
            InsertIntoAsLast(2, parse_forest("x-text")),
            InsertAttributes(0, [Node.attribute("k", "v")]),
            Delete(1),
            ReplaceNode(4, parse_forest("<z/>")),
            ReplaceNode(5, []),
            ReplaceValue(6, "new & <value>"),
            ReplaceChildren(7, "content"),
            ReplaceChildren(8, parse_forest("<g/>"), strict=False),
            Rename(9, "renamed"),
        ], origin="alice")
        restored = roundtrip(pul)
        assert restored == pul
        assert restored.origin == "alice"

    def test_labels_travel(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        pul = PUL([Delete(2)]).attach_labels(labeling)
        restored = roundtrip(pul)
        assert restored.labels[2] == labeling.exchange_label(2)

    def test_generalized_repc_flag_preserved(self):
        pul = PUL([ReplaceChildren(1, parse_forest("<a/><b/>"),
                                   strict=False)])
        restored = roundtrip(pul)
        assert not restored[0].strict
        assert len(restored[0].trees) == 2

    def test_identified_parameter_nodes(self):
        tree = parse_forest("<book><title>T</title></book>")[0]
        for index, node in enumerate(tree.iter_subtree()):
            node.node_id = 100 + index
        pul = PUL([InsertAfter(3, [tree])])
        restored = roundtrip(pul)
        ids = [n.node_id for n in restored[0].trees[0].iter_subtree()]
        assert ids == [100, 101, 102]

    def test_identified_text_and_attribute_parameters(self):
        text = Node.text("payload", node_id=200)
        attr = Node.attribute("k", "v", node_id=201)
        pul = PUL([InsertAfter(3, [text]),
                   InsertAttributes(0, [attr])])
        restored = roundtrip(pul)
        assert restored[0].trees[0].node_id == 200
        assert restored[1].trees[0].node_id == 201

    def test_whitespace_only_text_parameter(self):
        pul = PUL([InsertAfter(3, [Node.text("   ")])])
        restored = roundtrip(pul)
        assert restored[0].trees[0].value == "   "

    def test_escaping_in_values(self):
        pul = PUL([ReplaceValue(1, 'a"b<c>&d'), Rename(2, "n")])
        assert roundtrip(pul) == pul

    def test_mixed_content_parameter(self):
        pul = PUL([InsertAfter(3, parse_forest("<a>x<b/>y</a>"))])
        assert roundtrip(pul) == pul

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_random_puls(self, data):
        document = data.draw(documents())
        pul = data.draw(applicable_puls(document, stamp_ids=True))
        assert roundtrip(pul) == pul


class TestErrors:
    def test_wrong_root(self):
        with pytest.raises(SerializationError):
            pul_from_xml("<nope/>")

    def test_unknown_operation(self):
        with pytest.raises(SerializationError):
            pul_from_xml('<pul><op name="explode" target="1"/></pul>')

    def test_missing_target(self):
        with pytest.raises(SerializationError):
            pul_from_xml('<pul><op name="delete"/></pul>')

    def test_unexpected_element(self):
        with pytest.raises(SerializationError):
            pul_from_xml("<pul><operation/></pul>")

    @pytest.mark.parametrize("wire", [
        # identifiers and targets are [0-9]+, not whatever int() takes
        '<pul><op name="insertInto" target="1">'
        '<c repro:id="abc"/></op></pul>',
        '<pul><op name="insertInto" target="1">'
        '<repro:text repro:id="1_0">t</repro:text></op></pul>',
        '<pul><op name="insertAttributes" target="1">'
        '<repro:attr name="k" value="v" repro:id=" 7"/></op></pul>',
        '<pul><op name="delete" target="1_0"/></pul>',
        '<pul><op name="delete" target=" 7"/></pul>',
        '<pul><op name="delete" target="-1"/></pul>',
        '<pul><op name="delete" target="٣"/></pul>',
        '<pul><op name="delete" target="' + "9" * 5000 + '"/></pul>',
        # a label whose integer fields are not integers
        '<pul><op name="delete" target="1" label="x;e;01;1;2;-;-;-"/>'
        '</pul>',
        '<pul><op name="delete" target="1" label="1;e;01;1;2;-;y;-"/>'
        '</pul>',
        # text directly inside <pul> is not formatting
        '<pul>garbage<op name="delete" target="1"/></pul>',
        '<pul><op name="delete" target="1"/>garbage</pul>',
        # wrappers wrap a value, not markup
        '<pul><op name="insertInto" target="1">'
        '<repro:text><b/></repro:text></op></pul>',
        '<pul><op name="insertAttributes" target="1">'
        '<repro:attr name="k">v</repro:attr></op></pul>',
        '<pul><op name="insertAttributes" target="1">'
        '<repro:attr value="v"/></op></pul>',
    ])
    def test_malformed_exchange_document(self, wire):
        with pytest.raises(SerializationError):
            pul_from_xml(wire)

    def test_formatting_whitespace_is_accepted(self):
        pul = pul_from_xml(
            '<?xml version="1.0"?>\n<pul producer="p">\n'
            '  <op name="insertInto" target="1">\n    <c/>\n  </op>\n'
            '  <op name="delete" target="2"/>\n</pul>\n')
        assert pul.origin == "p"
        assert [op.op_name for op in pul] == ["insertInto", "delete"]
        assert [t.name for t in pul[0].trees] == ["c"]

    def test_trailing_content_is_refused(self):
        with pytest.raises(XMLSyntaxError):
            pul_from_xml('<pul><op name="delete" target="1"/></pul><pul/>')
