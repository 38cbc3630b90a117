"""Tests for the SAX-like event model."""

import pytest
from hypothesis import given, settings

from repro.errors import XMLSyntaxError
from repro.apply.events import (
    EndElement,
    StartElement,
    TextEvent,
    document_events,
    events_to_document,
    events_to_xml,
    parse_events,
)
from repro.xdm import parse_document, serialize
from repro.xdm.compare import documents_equal

from tests.strategies import documents


class TestParseEvents:
    def test_ids_match_tree_parser(self, small_doc):
        text = serialize(small_doc)
        streamed = list(parse_events(text))
        walked = list(document_events(small_doc))
        assert len(streamed) == len(walked)
        for a, b in zip(streamed, walked):
            assert type(a) is type(b)
            assert a.node_id == b.node_id
            if isinstance(a, StartElement):
                assert [x.node_id for x in a.attributes] == \
                    [x.node_id for x in b.attributes]

    def test_end_element_carries_id(self):
        events = list(parse_events("<a><b/></a>"))
        ends = [e for e in events if isinstance(e, EndElement)]
        assert [e.node_id for e in ends] == [1, 0]

    def test_self_closing(self):
        events = list(parse_events("<a/>"))
        assert [type(e).__name__ for e in events] == \
            ["StartElement", "EndElement"]
        assert events[1].node_id == 0

    def test_text_and_entities(self):
        events = list(parse_events("<a>x &amp; y</a>"))
        text = next(e for e in events if isinstance(e, TextEvent))
        assert text.value == "x & y"

    def test_comments_and_cdata(self):
        events = list(parse_events("<a><!--c--><![CDATA[<x>]]></a>"))
        text = next(e for e in events if isinstance(e, TextEvent))
        assert text.value == "<x>"

    def test_malformed(self):
        with pytest.raises(XMLSyntaxError):
            list(parse_events("<a><b></a></b>"))

    def test_whitespace_handling_matches_tree_parser(self):
        text = "<a>\n  <b/>\n</a>"
        streamed = [type(e).__name__ for e in parse_events(text)]
        assert "TextEvent" not in streamed
        kept = [type(e).__name__
                for e in parse_events(text, keep_whitespace=True)]
        assert "TextEvent" in kept


class TestWriter:
    def test_roundtrip(self, small_doc):
        text = serialize(small_doc)
        assert events_to_xml(parse_events(text)) == text

    def test_with_ids(self, small_doc):
        text = events_to_xml(document_events(small_doc), with_ids=True)
        assert 'repro:id="0"' in text

    def test_escaping(self):
        doc = parse_document('<a k="&quot;">&lt;</a>')
        assert events_to_xml(document_events(doc)) == serialize(doc)

    @settings(max_examples=40, deadline=None)
    @given(documents())
    def test_random_roundtrip(self, document):
        text = serialize(document)
        assert events_to_xml(parse_events(text, keep_whitespace=True)) == \
            text


class TestFileSink:
    def test_events_to_file_matches_string_writer(self, small_doc,
                                                  tmp_path):
        import io
        from repro.apply.events import events_to_file
        buffer = io.StringIO()
        written = events_to_file(document_events(small_doc), buffer,
                                 flush_every=2)
        text = events_to_xml(document_events(small_doc))
        assert buffer.getvalue() == text
        assert written == len(text)


class TestMaterialize:
    def test_events_to_document(self, small_doc):
        rebuilt = events_to_document(document_events(small_doc))
        assert documents_equal(rebuilt, small_doc, with_ids=True)

    def test_empty_stream(self):
        document = events_to_document(iter(()))
        assert document.root is None
