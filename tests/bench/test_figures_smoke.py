"""Smoke tests: each figure script in ``benchmarks/`` drives calls whose
results these tests pin at tiny scale. The scripts time the calls; here
the answers are checked — the two evaluators agree, reasoning from the
labels a PUL carries agrees with reasoning from the document, and the
figure's qualitative claim holds."""

import os
import tracemalloc

import pytest

from repro.aggregation import aggregate
from repro.apply.events import events_to_file, events_to_xml, parse_events
from repro.apply.inmemory import apply_in_memory
from repro.apply.streaming import apply_streaming
from repro.integration import integrate, reconcile
from repro.labeling import CDBSEncoder, CDQSEncoder, ContainmentLabeling
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.reasoning import DocumentOracle
from repro.reduction import reduce_deterministic, reduce_naive
from repro.workloads import (
    generate_conflicting_puls,
    generate_pul,
    generate_reducible_pul,
    generate_sequential_puls,
    generate_xmark,
)
from repro.xdm.serializer import serialize


def _xmark(scale):
    document = generate_xmark(scale=scale, seed=7)
    return document, ContainmentLabeling().build(document)


def _streamed(text, pul, fresh_start):
    return events_to_xml(apply_streaming(
        parse_events(text), pul, fresh_start=fresh_start, check=False))


def _peak_bytes(write):
    """Peak traced memory of ``write(sink)``, ``sink`` being
    ``os.devnull``."""
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            write(sink)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


class TestFigures:
    def test_fig6a(self):
        """Streaming and in-memory evaluation produce the same document."""
        for scale in (0.02, 0.04):
            document, __ = _xmark(scale)
            text = serialize(document)
            pul = generate_pul(document, 40, seed=7)
            streamed = _streamed(text, pul, len(document))
            assert streamed == apply_in_memory(text, pul)
            assert streamed != text

    def test_fig6a_memory(self):
        """The streaming evaluator holds less than the in-memory one,
        which holds the whole tree."""
        document, __ = _xmark(0.04)
        text = serialize(document)
        pul = generate_pul(document, 40, seed=7)
        streaming = _peak_bytes(lambda sink: events_to_file(
            apply_streaming(parse_events(text), pul,
                            fresh_start=len(document), check=False),
            sink))
        inmemory = _peak_bytes(
            lambda sink: sink.write(apply_in_memory(text, pul)))
        assert 0 < streaming < inmemory

    def test_fig6b(self):
        """Reduction from the labels a PUL carries, before and after the
        wire, equals reduction from the document."""
        document, labeling = _xmark(0.05)
        oracle = DocumentOracle(document)
        for size in (80, 160):
            pul = generate_reducible_pul(document, size, hit_ratio=0.1,
                                         seed=11, labeling=labeling)
            reduced = reduce_deterministic(pul)
            assert len(reduced) < len(pul)
            assert reduced == reduce_deterministic(pul, structure=oracle)
            received = pul_from_xml(pul_to_xml(pul))
            assert reduce_deterministic(received) == reduced

    def test_fig6c(self):
        """Aggregation is unchanged by a trip over the wire and never
        grows the operation count."""
        document, __ = _xmark(0.05)
        for count in (1, 2):
            puls, __ = generate_sequential_puls(
                document, count, 40, new_node_ratio=0.5, seed=13)
            combined = aggregate(puls)
            assert len(combined) <= sum(len(pul) for pul in puls)
            received = [pul_from_xml(pul_to_xml(pul)) for pul in puls]
            assert aggregate(received) == combined

    def test_fig6d(self):
        """Applying the aggregate in one streamed pass yields the
        document that applying every PUL in turn does."""
        document, __ = _xmark(0.03)
        text = serialize(document)
        for count in (1, 2):
            puls, sequential = generate_sequential_puls(document, count, 25,
                                                        seed=17)
            assert _streamed(text, aggregate(puls), None) == \
                serialize(sequential)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "parse_events numbers every node in document order, so a PUL "
        "after the first targets producer-stamped ids its streamed "
        "input no longer carries; ROADMAP item 'One identity rule: an "
        "id, once stamped, survives every path a PUL can take' makes "
        "the sequential arm end at final_document"))
    def test_fig6d_sequential_passes(self):
        """Figure 6d's sequential arm — one streamed pass per PUL, each
        pass's output text the next one's input — ends at the document
        the chain describes."""
        document, __ = _xmark(0.03)
        puls, sequential = generate_sequential_puls(document, 2, 25,
                                                    seed=17)
        current = serialize(document)
        for pul in puls:
            current = events_to_xml(apply_streaming(
                parse_events(current), pul, check=False))
        assert current == serialize(sequential)

    def test_fig6e(self):
        """Integration from the union of the PULs' labels finds the
        conflicts that integration from the document finds."""
        document, labeling = _xmark(0.05)
        puls, planted = generate_conflicting_puls(
            document, pul_count=3, ops_per_pul=40, conflict_fraction=0.5,
            ops_per_conflict=5, cascade_fraction=0.2, seed=19,
            labeling=labeling)
        result = integrate(puls)
        assert result.has_conflicts and planted > 0
        by_document = integrate(puls, structure=DocumentOracle(document))
        assert len(result.conflicts) == len(by_document.conflicts)
        assert result.pul == by_document.pul

    def test_fig6e_reconcile(self):
        """Reconciliation from labels alone resolves every conflict into
        a non-empty PUL."""
        document, labeling = _xmark(0.05)
        puls, __ = generate_conflicting_puls(
            document, pul_count=3, ops_per_pul=40, conflict_fraction=0.5,
            ops_per_conflict=5, cascade_fraction=0.2, seed=19,
            labeling=labeling)
        reconciled = reconcile(puls, policies={})
        assert len(reconciled) > 0
        assert reconciled == reconcile(
            puls, policies={}, structure=DocumentOracle(document))

    def test_e6(self):
        """Streamed evaluation agrees with in-memory evaluation whatever
        the PUL size."""
        document, __ = _xmark(0.05)
        text = serialize(document)
        for size in (20, 40):
            pul = generate_pul(document, size, seed=23)
            assert _streamed(text, pul, len(document)) == \
                apply_in_memory(text, pul)

    def test_e8(self):
        """Embedding identifiers and labels makes the stored document
        substantially bigger (the paper reports about 3x)."""
        document, labeling = _xmark(0.02)
        labels = {node_id: labeling.exchange_label(node_id).to_string()
                  for node_id in labeling.as_mapping()}
        plain = serialize(document)
        stored = serialize(document, with_ids=True, labels=labels)
        assert len(stored) > 1.5 * len(plain)

    def test_ablation_codes(self):
        """Both encoders keep a code strictly inside its gap across the
        ablation's repeated insertions at one gap."""
        for encoder in (CDBSEncoder(), CDQSEncoder()):
            left, right = "1", "2" if encoder.base == 4 else "11"
            for __ in range(300):
                code = encoder.between(left, right)
                assert left < code < right
                left = code

    def test_ablation_reduction(self):
        """The optimized engine and the naive reference reduce a labeled
        PUL to the same result."""
        document, labeling = _xmark(0.02)
        pul = generate_reducible_pul(document, 20, hit_ratio=0.1, seed=31,
                                     labeling=labeling)
        assert reduce_naive(pul, deterministic=True) == \
            reduce_deterministic(pul)
