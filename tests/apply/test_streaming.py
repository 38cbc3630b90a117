"""Streaming evaluator tests: byte-equivalence with the in-memory
evaluator (refusals included), identifier assignment, memory independent
of document size."""

import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apply.events import (
    document_events,
    events_to_document,
    events_to_file,
    events_to_xml,
    parse_events,
)
from repro.apply.inmemory import apply_in_memory
from repro.apply.streaming import apply_streaming
from repro.errors import NotApplicableError
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
from repro.workloads import generate_pul, generate_xmark
from repro.xdm import parse_document, serialize
from repro.xdm.node import Node
from repro.xdm.parser import parse_forest

from tests.strategies import applicable_puls, documents


def both_ways(xml, pul):
    """Run both evaluators; assert identical output; return it."""
    document = parse_document(xml)
    in_memory = apply_in_memory(parse_document(xml), pul, with_ids=True)
    streamed = events_to_xml(
        apply_streaming(parse_events(xml), pul,
                        fresh_start=len(document)),
        with_ids=True)
    assert in_memory == streamed
    return streamed


class TestEquivalenceWithInMemory:
    def test_inserts_everywhere(self):
        xml = "<a><b>x</b><c/></a>"
        pul = PUL([
            InsertBefore(1, parse_forest("<p1/>")),
            InsertBefore(1, parse_forest("<p2/>")),
            InsertAfter(1, parse_forest("<q1/>")),
            InsertAfter(1, parse_forest("<q2/>")),
            InsertIntoAsFirst(0, parse_forest("<f/>")),
            InsertIntoAsLast(0, parse_forest("<l/>")),
            InsertInto(0, parse_forest("<i/>")),
        ])
        out = both_ways(xml, pul)
        assert out.index("<f") < out.index("<i") < out.index("<p1")

    def test_replacements(self):
        xml = "<a k='v'><b>x</b><c/>tail</a>"
        pul = PUL([
            ReplaceNode(2, parse_forest("<nb/>")),
            ReplaceValue(1, "v2"),
            ReplaceChildren(4, "emptied"),
            Rename(0, "root"),
        ])
        both_ways(xml, pul)

    def test_deletions(self):
        xml = "<a k='v'><b>x</b><c/>t</a>"
        both_ways(xml, PUL([Delete(2), Delete(1), Delete(5)]))

    def test_text_node_operations(self):
        xml = "<a>first<b/>second</a>"
        pul = PUL([
            ReplaceValue(1, "FIRST"),
            ReplaceNode(3, parse_forest("<s/>")),
            InsertBefore(1, parse_forest("<pre/>")),
            InsertAfter(3, parse_forest("<post/>")),
        ])
        both_ways(xml, pul)

    def test_attribute_operations(self):
        xml = "<a k1='1' k2='2'><b/></a>"
        pul = PUL([
            Rename(1, "renamed"),
            ReplaceValue(2, "changed"),
            InsertAttributes(0, [Node.attribute("k3", "3")]),
            InsertAttributes(3, [Node.attribute("n", "m")]),
        ])
        both_ways(xml, pul)

    def test_replace_attribute_node(self):
        xml = "<a k='v'/>"
        both_ways(xml, PUL([ReplaceNode(
            1, [Node.attribute("k2", "w")])]))

    def test_repc_cases(self):
        xml = "<a k='v'><b><c/>x</b></a>"
        pul = PUL([ReplaceChildren(2, "gone"),
                   InsertIntoAsLast(2, parse_forest("<dead/>")),
                   InsertAttributes(2, [Node.attribute("kept", "1")])])
        out = both_ways(xml, pul)
        assert "dead" not in out and "kept" in out

    def test_nested_override(self):
        xml = "<a><b><c><d/></c></b></a>"
        pul = PUL([Rename(3, "dead"),
                   ReplaceNode(1, parse_forest("<nb><x/></nb>"))])
        out = both_ways(xml, pul)
        assert "dead" not in out

    def test_root_delete(self):
        xml = "<a><b/></a>"
        document = parse_document(xml)
        streamed = events_to_xml(apply_streaming(
            parse_events(xml), PUL([Delete(0)]), fresh_start=2))
        assert streamed == ""
        assert apply_in_memory(document, PUL([Delete(0)])) == ""

    def test_renamed_element_end_tag(self):
        out = both_ways("<a><b>x</b></a>", PUL([Rename(1, "nb")]))
        assert "</nb>" in out

    def test_duplicate_attribute_error(self):
        xml = "<a k='v'/>"
        pul = PUL([InsertAttributes(0, [Node.attribute("k", "w")])])
        with pytest.raises(NotApplicableError):
            events_to_xml(apply_streaming(parse_events(xml), pul))

    def test_producer_ids_preserved(self):
        xml = "<a><b/></a>"
        tree = Node.element("p", node_id=50)
        pul = PUL([InsertAfter(1, [tree])])
        out = events_to_document(apply_streaming(
            parse_events(xml), pul, fresh_start=100))
        assert out.find(50) is not None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_puls_agree(self, data):
        document = data.draw(documents())
        pul = data.draw(applicable_puls(document, max_ops=6))
        agree(data, serialize(document), pul)


#: (with_ids, fresh ids assigned): new nodes carry comparable ids only
#: when the streaming evaluator assigns them; ``fresh_start=None`` with
#: plain output is the call the one-shot ``apply`` command makes
_MODES = ((True, True), (False, True), (False, False))

_SOURCES = {
    "parse_events": parse_events,
    "document_events": lambda xml: document_events(parse_document(xml)),
}


def agree(data, xml, pul):
    """Draw an output mode, an event source and a chunk size; assert that
    streaming prints what the in-memory evaluator prints — through
    ``events_to_xml`` and ``events_to_file`` alike — or raises what it
    raises."""
    with_ids, fresh = data.draw(st.sampled_from(_MODES))
    source = _SOURCES[data.draw(st.sampled_from(sorted(_SOURCES)))]
    fresh_start = len(parse_document(xml)) if fresh else None

    def streamed():
        return apply_streaming(source(xml), pul, fresh_start=fresh_start)

    try:
        expected = apply_in_memory(xml, pul, with_ids=with_ids)
    except NotApplicableError as error:
        with pytest.raises(NotApplicableError) as refusal:
            events_to_xml(streamed(), with_ids=with_ids)
        assert type(refusal.value) is type(error)
        assert str(refusal.value) == str(error)
        return
    assert events_to_xml(streamed(), with_ids=with_ids) == expected
    sink = io.StringIO()
    written = events_to_file(streamed(), sink, with_ids=with_ids,
                             flush_every=data.draw(st.integers(1, 9)))
    assert sink.getvalue() == expected
    assert written == len(expected)


@st.composite
def any_puls(draw, document, max_ops=4):
    """Operations of any kind on any identifier — the document's and two
    past its end — so that most PULs are not applicable."""
    target = st.integers(0, len(document) + 1)
    ops = []
    for __ in range(draw(st.integers(1, max_ops))):
        kind = draw(st.sampled_from(sorted(_ANY_OPS)))
        ops.append(_ANY_OPS[kind](draw(target)))
    return PUL(ops)


_ANY_OPS = {
    "del": Delete,
    "ren": lambda t: Rename(t, "z"),
    "repV": lambda t: ReplaceValue(t, "v"),
    "repC": lambda t: ReplaceChildren(t, "rc"),
    "repN": lambda t: ReplaceNode(t, parse_forest("<q/>")),
    "repN-attribute": lambda t: ReplaceNode(t, [Node.attribute("z", "1")]),
    "insA": lambda t: InsertAttributes(t, [Node.attribute("g", "w")]),
    "ins-before": lambda t: InsertBefore(t, parse_forest("<q/>")),
    "ins-after": lambda t: InsertAfter(t, parse_forest("<q/>")),
    "ins-first": lambda t: InsertIntoAsFirst(t, parse_forest("<q/>")),
    "ins-last": lambda t: InsertIntoAsLast(t, parse_forest("<q/>")),
    "ins-into": lambda t: InsertInto(t, parse_forest("q")),
}


def refused_alike(xml, pul):
    """Both evaluators refuse ``pul`` on ``xml``, with one error."""
    with pytest.raises(NotApplicableError) as in_memory:
        apply_in_memory(xml, pul)
    with pytest.raises(NotApplicableError) as streamed:
        events_to_xml(apply_streaming(parse_events(xml), pul))
    assert type(streamed.value) is type(in_memory.value)
    assert str(streamed.value) == str(in_memory.value)
    return str(streamed.value)


class TestRefusals:
    """Streaming refuses what in-memory refuses, with its message."""

    XML = "<a k='v'><b>x</b><c/></a>"  # a0 @k1 b2 x3 c4

    @pytest.mark.parametrize("op", [
        Delete(99),
        Rename(99, "z"),
        InsertIntoAsLast(3, parse_forest("<q/>")),
        ReplaceValue(2, "v"),
        Rename(3, "z"),
        InsertAttributes(3, [Node.attribute("n", "m")]),
        InsertBefore(0, parse_forest("<q/>")),
        ReplaceNode(4, [Node.attribute("z", "1")]),
        ReplaceNode(1, parse_forest("<z/>")),
    ], ids=repr)
    def test_inapplicable_operation(self, op):
        message = refused_alike(self.XML, PUL([op]))
        assert message.startswith(op.describe() + ": ")

    def test_reasons_in_pul_order(self):
        pul = PUL([ReplaceValue(4, "v"), Delete(99),
                   InsertBefore(0, parse_forest("<q/>")), Delete(2)])
        assert refused_alike(self.XML, pul).count("; ") == 2

    def test_inside_a_deleted_subtree(self):
        refused_alike(self.XML, PUL([Delete(2), Rename(3, "z")]))

    def test_incompatible_pair(self):
        refused_alike(self.XML, PUL([Rename(2, "y"), Rename(2, "z")]))

    def test_applicability_before_duplicate_attribute(self):
        pul = PUL([InsertAttributes(0, [Node.attribute("k", "w")]),
                   Delete(99)])
        assert "not in document" in refused_alike(self.XML, pul)

    def test_duplicate_attribute_named_in_pul_order(self):
        xml = "<a x='1' y='2'><b x='1' y='2'/></a>"  # a0 x1 y2 b3 x4 y5
        pul = PUL([Rename(4, "z"), Rename(5, "z"),
                   Rename(1, "z"), Rename(2, "z")])
        assert "element 3" in refused_alike(xml, pul)

    def test_output_ends_at_the_refused_node(self):
        pul = PUL([ReplaceNode(1, parse_forest("<z/>"))])
        sink = io.StringIO()
        with pytest.raises(NotApplicableError):
            events_to_file(apply_streaming(parse_events(self.XML), pul),
                           sink, flush_every=1)
        assert sink.getvalue() == ""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_puls_refused_alike(self, data):
        document = data.draw(documents(max_depth=2))
        agree(data, serialize(document), data.draw(any_puls(document)))


def test_memory_independent_of_document_size():
    """Section 4.3: the peak of a streamed application (input text not
    counted) stays flat from a document to one eight times its size."""

    class Sink:
        def write(self, chunk):
            pass

    peaks = []
    for scale in (0.05, 0.4):
        document = generate_xmark(scale=scale, seed=3)
        text = serialize(document)
        pul = generate_pul(document, 20, seed=3)
        del document
        tracemalloc.start()
        try:
            events_to_file(apply_streaming(parse_events(text), pul), Sink())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks

