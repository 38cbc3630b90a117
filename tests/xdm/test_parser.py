"""Unit and property tests for the XML parser."""

import pytest
from hypothesis import given, settings

from repro.errors import XMLSyntaxError
from repro.xdm import parse_document, serialize
from repro.xdm.parser import parse_forest, parse_fragment

from tests.strategies import documents


class TestBasics:
    def test_simple_element(self):
        doc = parse_document("<a/>")
        assert doc.root.name == "a"
        assert doc.root.children == []

    def test_nested(self):
        doc = parse_document("<a><b><c/></b></a>")
        assert doc.root.children[0].children[0].name == "c"

    def test_text_content(self):
        doc = parse_document("<a>hello</a>")
        assert doc.root.children[0].value == "hello"

    def test_mixed_content(self):
        doc = parse_document("<a>x<b/>y</a>")
        kinds = [c.is_text for c in doc.root.children]
        assert kinds == [True, False, True]

    def test_attributes_both_quotes(self):
        doc = parse_document("""<a x="1" y='2'/>""")
        assert {(a.name, a.value) for a in doc.root.attributes} == \
            {("x", "1"), ("y", "2")}

    def test_whitespace_only_text_dropped_by_default(self):
        doc = parse_document("<a>\n  <b/>\n</a>")
        assert [c.name for c in doc.root.children] == ["b"]

    def test_whitespace_kept_on_request(self):
        doc = parse_document("<a> <b/> </a>", keep_whitespace=True)
        assert len(doc.root.children) == 3

    def test_names_with_punctuation(self):
        doc = parse_document("<ns:a-b.c_d/>")
        assert doc.root.name == "ns:a-b.c_d"


class TestEntitiesAndSections:
    def test_predefined_entities(self):
        doc = parse_document("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert doc.root.children[0].value == "<&>\"'"

    def test_numeric_references(self):
        doc = parse_document("<a>&#65;&#x42;</a>")
        assert doc.root.children[0].value == "AB"

    def test_numeric_references_reach_every_xml_char(self):
        doc = parse_document(
            "<a>&#9;&#x20;&#xD7FF;&#xE000;&#xFFFD;&#x10000;&#x10FFFF;"
            "&#0000000065;</a>")
        assert doc.root.children[0].value == \
            "\t \ud7ff\ue000\ufffd\U00010000\U0010ffffA"

    @pytest.mark.parametrize("reference", [
        "&#xD800;", "&#xDFFF;", "&#0;", "&#8;", "&#xFFFE;", "&#x110000;",
        "&#6_5;", "&# 65;", "&#+65;", "&#x 41;", "&#99999999999;",
        "&#" + "9" * 5000 + ";",
    ])
    def test_references_to_no_xml_char_are_refused(self, reference):
        for text in ("<a>ok {}</a>".format(reference),
                     "<a k='ok {}'/>".format(reference)):
            with pytest.raises(XMLSyntaxError) as info:
                parse_document(text)
            assert info.value.position == text.index("&")

    def test_entity_in_attribute(self):
        doc = parse_document("<a k='&amp;x'/>")
        assert doc.root.attributes[0].value == "&x"

    def test_cdata(self):
        doc = parse_document("<a><![CDATA[<not-a-tag>]]></a>")
        assert doc.root.children[0].value == "<not-a-tag>"

    def test_comments_skipped(self):
        doc = parse_document("<a><!-- note --><b/></a>")
        assert [c.name for c in doc.root.children] == ["b"]

    def test_processing_instruction_skipped(self):
        doc = parse_document("<a><?pi data?><b/></a>")
        assert [c.name for c in doc.root.children] == ["b"]

    def test_prolog_and_doctype(self):
        doc = parse_document(
            "<?xml version='1.0'?><!DOCTYPE a><a/>")
        assert doc.root.name == "a"


class TestErrors:
    @pytest.mark.parametrize("text", [
        "",
        "<a>",
        "<a></b>",
        "<a",
        "<a x=1/>",
        "<a x='1' x='2'/>",
        "<a>&unknown;</a>",
        "<a/><b/>",
        "<a><b></a></b>",
        "<a>&#xZZ;</a>",
        "<!-- unterminated <a/>",
    ])
    def test_malformed(self, text):
        with pytest.raises(XMLSyntaxError):
            parse_document(text)

    def test_error_carries_position(self):
        with pytest.raises(XMLSyntaxError) as info:
            parse_document("<a><b></c></a>")
        assert info.value.position is not None


class TestForest:
    def test_multiple_roots(self):
        trees = parse_forest("<a/><b>x</b>text")
        assert [t.name or t.value for t in trees] == ["a", "b", "text"]
        assert all(t.parent is None for t in trees)

    def test_empty_forest(self):
        assert parse_forest("") == []

    def test_fragment_single_element_only(self):
        with pytest.raises(XMLSyntaxError):
            parse_fragment("<a/><b/>")


class TestRoundtrip:
    def test_simple_roundtrip(self):
        text = '<a x="1"><b>hi &amp; bye</b><c/></a>'
        assert serialize(parse_document(text)) == text

    @settings(max_examples=50, deadline=None)
    @given(documents())
    def test_random_roundtrip(self, document):
        text = serialize(document)
        reparsed = parse_document(text, keep_whitespace=True)
        assert serialize(reparsed) == text
