"""Conformance of the one XML scanner (:func:`repro.xdm.parser._tokens`)
and of everything that reads its tokens.

(a) against a reference: what ``parse_fragment`` reads is what expat (via
    :mod:`xml.etree.ElementTree`) reads, on documents that use every
    construct the scanner knows;
(b) between consumers: the event parser, the tree parser and the XQuery
    lexer's constructor arm see the same document in the same text;
(c) refusal: malformed input raises a typed error from every consumer,
    and the error says where;
(d) the name grammar is the one the character-level parser had.
"""

import xml.etree.ElementTree as ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apply.events import events_to_document, parse_events
from repro.errors import ReproError, XMLSyntaxError
from repro.labeling import ContainmentLabeling
from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertIntoAsLast,
    Rename,
    ReplaceChildren,
    ReplaceValue,
)
from repro.pul.pul import PUL
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.xdm import parse_document, parse_fragment
from repro.xdm.compare import documents_equal
from repro.xdm.node import Node
from repro.xdm.parser import parse_forest
from repro.xquery.lexer import NAME, XML, tokenize

from tests.strategies import documents
from tests.xdm import test_parser as parser_tests

# -- (a), (b): documents that use every construct -----------------------------

#: ways to write one character (expat expands them for us)
_SPELLINGS = {
    "<": ("&lt;", "&#60;", "&#x3c;", "&#x3C;"),
    "&": ("&amp;", "&#38;"),
    ">": ("&gt;", "&#0062;", ">"),
    '"': ("&quot;", '"'),
    "'": ("&apos;", "'"),
    "\n": ("&#10;", "&#xA;", "\n"),
}
#: what may stand between two children without being a node itself, or
#: (CDATA) while joining the text around it
_INTERLUDES = ("<!-- a <comment> & more -->", "<?target some data?>",
               "<![CDATA[<c&data>]]>", "<![CDATA[]]>", "<!---->")
_PROLOGS = ("", "<?xml version='1.0'?>", "<!-- before -->\n",
            '<?xml version="1.0" encoding="utf-8"?>\n<!DOCTYPE a>\n',
            "<!DOCTYPE a [<!ELEMENT a ANY>]><?pi?>")
_EPILOGS = ("", "\n", "<!-- after --> <?pi?>\n")
_TEXTS = ("x", "y z", "<&>", "it's \"quoted\"", " ", "\n  ", "é€𝄞",
          "]]", "t")


@st.composite
def written_elements(draw):
    """The text of a ``documents()`` tree, written with every liberty
    XML gives a writer: both quote kinds, all five entities and numeric
    references, CDATA, comments and PIs between children, space inside
    tags, both empty-element forms."""

    def characters(value, quote=None):
        parts = []
        for char in value:
            spellings = _SPELLINGS.get(char, (char,))
            # attribute values: expat normalizes a plain newline away
            if quote is not None and char in (quote, "\n"):
                spellings = tuple(s for s in spellings if s != char)
            parts.append(draw(st.sampled_from(spellings)))
        return "".join(parts)

    def write(node):
        if node.is_text:
            return characters(draw(st.sampled_from(_TEXTS)))
        parts = ["<", node.name]
        for attr in node.attributes:
            quote = draw(st.sampled_from("'\""))
            parts.append("{}{}{}={}{}{}{}".format(
                draw(st.sampled_from((" ", "\n ", "  "))), attr.name,
                draw(st.sampled_from(("", " "))),
                draw(st.sampled_from(("", " "))), quote,
                characters(draw(st.sampled_from(_TEXTS)), quote), quote))
        parts.append(draw(st.sampled_from(("", " "))))
        if not node.children and draw(st.booleans()):
            parts.append("/>")
            return "".join(parts)
        parts.append(">")
        for child in node.children:
            if draw(st.booleans()):
                parts.append(draw(st.sampled_from(_INTERLUDES)))
            parts.append(write(child))
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(_INTERLUDES)))
        parts.append("</{}{}>".format(
            node.name, draw(st.sampled_from(("", " ", "\n")))))
        return "".join(parts)

    return write(draw(documents()).root)


def written_documents():
    """A written element with a prolog before and an epilog behind it."""
    return st.builds("{}{}{}".format, st.sampled_from(_PROLOGS),
                     written_elements(), st.sampled_from(_EPILOGS))


def _shape(node):
    """(name, attribute map, children) with text as plain strings."""
    if node.is_text:
        return node.value
    return (node.name, {attr.name: attr.value for attr in node.attributes},
            [_shape(child) for child in node.children])


def _reference_shape(element):
    """The same shape from an ElementTree element (text and tails are
    the text nodes; expat never reports an empty one)."""
    children = [element.text] if element.text else []
    for child in element:
        children.append(_reference_shape(child))
        if child.tail:
            children.append(child.tail)
    return (element.tag, dict(element.attrib), children)


class TestAgainstExpat:
    @settings(max_examples=300, deadline=None)
    @given(written_documents())
    def test_same_names_attributes_and_text(self, text):
        assert _shape(parse_fragment(text, keep_whitespace=True)) == \
            _reference_shape(ElementTree.fromstring(text))

    def test_every_construct_at_once(self):
        text = ("<?xml version='1.0'?><!DOCTYPE r [<!ENTITY % x 'y'>]>"
                "<!--c-->\n<r a=\"1&amp;2\" b='&#x41;&lt;\"'>"
                "t<!--c-->u<![CDATA[<v>&amp;]]>w<?pi?>&#120;"
                "<e  k = 'v' /><f></f >tail</r>\n<?pi?>")
        assert _shape(parse_fragment(text)) == \
            _reference_shape(ElementTree.fromstring(text)) == \
            ("r", {"a": "1&2", "b": 'A<"'},
             ["tu<v>&amp;wx", ("e", {"k": "v"}, []), ("f", {}, []),
              "tail"])

    @pytest.mark.parametrize("text", [
        "<a>&#xD800;</a>", "<a>&#0;</a>", "<a>&#6_5;</a>",
        "<a>&# 65;</a>", "<a>&#xFFFE;</a>", "<a>&#x110000;</a>",
        "<a>&#X41;</a>", "<a k='&#11;'/>", "<a>&amp</a>", "<a>&;</a>",
        "<a>&#;</a>", "<a>&#x;</a>", "<a x='1'y='2'/>", "<a x='<'/>",
        "<a><!DOCTYPE a></a>", "<![CDATA[x]]><a/>", "<a/>&amp;",
        "<a></a >x", "<!doctype a><a/>", "<1a/>", "<a 1x='1'/>",
    ])
    def test_refuses_what_expat_refuses(self, text):
        with pytest.raises(ElementTree.ParseError):
            ElementTree.fromstring(text)
        with pytest.raises(XMLSyntaxError):
            parse_fragment(text)


class TestConsumersAgree:
    @settings(max_examples=100, deadline=None)
    @given(written_documents(), st.booleans())
    def test_events_and_tree_node_for_node(self, text, keep_whitespace):
        streamed = events_to_document(
            parse_events(text, keep_whitespace=keep_whitespace))
        parsed = parse_document(text, keep_whitespace=keep_whitespace)
        assert documents_equal(streamed, parsed, with_ids=True)
        assert sorted(streamed.node_ids()) == list(range(len(parsed)))

    @settings(max_examples=100, deadline=None)
    @given(written_elements(), written_elements())
    def test_forest_is_its_fragments(self, first, second):
        trees = parse_forest(first + "between" + second)
        assert [_shape(tree) for tree in trees] == [
            _shape(parse_fragment(first)), "between",
            _shape(parse_fragment(second))]

    def test_xquery_constructor_reads_the_same_element(self):
        constructor = "<a x='1'>t<b/></a>"
        query = "insert node {} into /r".format(constructor)
        tokens = tokenize(query)
        (xml,) = [token for token in tokens if token.kind == XML]
        assert _shape(xml.value) == _shape(parse_fragment(constructor))
        assert xml.position == query.index("<")
        # ... and the lexer resumes right behind it
        following = tokens[tokens.index(xml) + 1]
        assert (following.kind, following.value) == (NAME, "into")
        assert following.position == query.index("into")

    def test_constructor_ends_at_its_end_tag(self):
        tokens = tokenize("<a><a/></a><b/>")
        assert [token.position for token in tokens
                if token.kind == XML] == [0, 11]


# -- (c) refusal --------------------------------------------------------------

#: the corpus of ``test_parser.TestErrors.test_malformed``
_MALFORMED = parser_tests.TestErrors.test_malformed.pytestmark[0].args[1]

#: where each is wrong: the offending ``<`` or ``&``; for input that just
#: stops, the start tag left open
_POSITIONS = {
    "": 0,
    "<a>": 0,
    "<a></b>": 3,
    "<a": 0,
    "<a x=1/>": 0,
    "<a x='1' x='2'/>": 0,
    "<a>&unknown;</a>": 3,
    "<a/><b/>": 4,
    "<a><b></a></b>": 6,
    "<a>&#xZZ;</a>": 3,
    "<!-- unterminated <a/>": 0,
    "<a><b>text": 3,
    "<a k='v&#0;'/>": 7,
    "<a>x<!-- c</a>": 4,
    "<a><![CDATA[x</a>": 3,
    "<a><?pi</a>": 3,
    "<!DOCTYPE a <a/>": 0,
    "<a>x</a><!-- c --><b/>": 18,
    "<a>one &amp; two &bogus; three</a>": 17,
}

_CONSUMERS = {
    "parse_fragment": parse_fragment,
    "parse_events": lambda text: list(parse_events(text)),
    "pul_from_xml": pul_from_xml,
}


def _wire_pul():
    """A wire PUL with every shape the exchange format has."""
    document = parse_document("<r><a k='v'>t</a><b/></r>")
    pul = PUL([
        InsertAfter(1, [Node.element("w", node_id=100),
                        Node.text("p&q", node_id=101), Node.text("  ")]),
        InsertIntoAsLast(0, parse_forest("<x y='1'>z<u/></x>")),
        InsertAttributes(4, [Node.attribute("g", "<w>", node_id=102)]),
        Delete(3),
        ReplaceValue(2, "a\"b<c>&d"),
        ReplaceChildren(4, parse_forest("<g/>"), strict=False),
        Rename(1, "renamed"),
    ], origin="al&ice")
    return pul_to_xml(pul.attach_labels(ContainmentLabeling().build(document)))


class TestRefusal:
    def test_every_pinned_case_of_the_parser_suite_is_pinned_here(self):
        assert set(_MALFORMED) <= set(_POSITIONS)

    @pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
    @pytest.mark.parametrize("text", sorted(_POSITIONS))
    def test_malformed_is_a_typed_error_that_says_where(self, text,
                                                        consumer):
        with pytest.raises(ReproError) as info:
            _CONSUMERS[consumer](text)
        if consumer != "pul_from_xml":  # which may object to <a> first
            assert isinstance(info.value, XMLSyntaxError)
        if isinstance(info.value, XMLSyntaxError):
            assert info.value.position == _POSITIONS[text]

    @pytest.mark.parametrize("consumer", sorted(_CONSUMERS))
    def test_wire_pul_cut_at_every_offset(self, consumer):
        wire = _wire_pul()
        _CONSUMERS[consumer](wire)
        for cut in range(len(wire)):
            with pytest.raises(XMLSyntaxError) as info:
                _CONSUMERS[consumer](wire[:cut])
            position = info.value.position
            assert cut == position == 0 or (
                position < cut and wire[position] in "<&"), cut


# -- (d) the name grammar -----------------------------------------------------
# The predicates the character-level parser read names with; they are
# the reference for the scanner's name pattern.


def _is_name_start(ch):
    return ch.isalpha() or ch in "_:"


def _is_name_char(ch):
    return ch.isalnum() or ch in "_:.-"


def _parsed_name(text):
    try:
        return parse_fragment(text).name
    except XMLSyntaxError:
        return None


class TestNameGrammar:
    def test_agrees_on_every_code_point_below_u3000(self):
        for code in range(0x3000):
            char = chr(code)
            assert (_parsed_name("<{}/>".format(char)) == char) == \
                _is_name_start(char), hex(code)
            assert (_parsed_name("<a{}/>".format(char)) == "a" + char) == \
                _is_name_char(char), hex(code)
            assert (_parsed_name("<a {}='1'/>".format(char)) == "a") == \
                _is_name_start(char), hex(code)
