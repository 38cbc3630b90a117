"""Tests for the synthetic PUL generators."""

import pytest

from repro.aggregation import aggregate
from repro.pul.semantics import apply_pul
from repro.reasoning import DocumentOracle
from repro.reduction import reduce_deterministic
from repro.workloads import (
    generate_pul,
    generate_reducible_pul,
    generate_sequential_puls,
    generate_xmark,
)
from repro.xdm import parse_document
from repro.xdm.compare import canonical_string


@pytest.fixture(scope="module")
def xmark():
    return generate_xmark(scale=0.03, seed=2)


class TestGeneratePul:
    def test_requested_size(self, xmark):
        pul = generate_pul(xmark, 120, seed=1)
        assert len(pul) == 120

    def test_applicable(self, xmark):
        pul = generate_pul(xmark, 120, seed=1)
        assert pul.is_applicable(xmark)
        working = xmark.copy()
        apply_pul(working, pul)

    def test_deterministic(self, xmark):
        assert generate_pul(xmark, 50, seed=3) == \
            generate_pul(xmark, 50, seed=3)

    def test_even_mix(self, xmark):
        pul = generate_pul(xmark, 110, seed=4)
        kinds = {}
        for op in pul:
            kinds[op.op_name] = kinds.get(op.op_name, 0) + 1
        assert len(kinds) == 11
        assert max(kinds.values()) - min(kinds.values()) <= 3

    def test_labels_attached(self, xmark):
        from repro.labeling import ContainmentLabeling
        labeling = ContainmentLabeling().build(xmark)
        pul = generate_pul(xmark, 30, seed=5, labeling=labeling)
        assert set(pul.labels) >= pul.targets()


class TestReduciblePul:
    def test_reduction_hits_near_ratio(self, xmark):
        pul = generate_reducible_pul(xmark, 300, hit_ratio=0.1, seed=6)
        reduced = reduce_deterministic(pul, DocumentOracle(xmark))
        collapsed = len(pul) - len(reduced)
        # at least the planted pairs collapse; random extras may add more
        assert collapsed >= 0.1 * 300 * 0.8

    def test_still_applicable(self, xmark):
        pul = generate_reducible_pul(xmark, 200, hit_ratio=0.1, seed=7)
        assert pul.is_applicable(xmark)
        working = xmark.copy()
        apply_pul(working, pul)


class TestSequentialPuls:
    def test_chain_applies_and_aggregates(self, xmark):
        puls, final = generate_sequential_puls(xmark, 4, 60, seed=8)
        assert len(puls) == 4
        assert all(len(p) == 60 for p in puls)
        combined = aggregate(puls)
        working = xmark.copy()
        apply_pul(working, combined, preserve_ids=True)
        assert canonical_string(working.root, with_ids=True) == \
            canonical_string(final.root, with_ids=True)

    def test_new_node_ratio_targets_new_nodes(self, xmark):
        puls, __ = generate_sequential_puls(xmark, 3, 60,
                                            new_node_ratio=0.9, seed=9)
        later = puls[-1]
        new_targets = sum(1 for op in later if op.target not in xmark)
        assert new_targets > 30

    def test_source_document_untouched(self, xmark):
        snapshot = canonical_string(xmark.root, with_ids=True)
        generate_sequential_puls(xmark, 3, 40, seed=10)
        assert canonical_string(xmark.root, with_ids=True) == snapshot


class TestMinDepth:
    def test_targets_respect_min_depth(self):
        from repro.xdm.navigation import depth
        document = parse_document(
            "<r><s><c>t</c></s><u><v>w</v></u></r>")
        pul = generate_pul(document, 8, seed=1, min_depth=2)
        for op in pul:
            assert depth(document, document.find(op.target)) >= 2

    def test_unreachable_depth_raises_cleanly(self):
        from repro.errors import ReproError
        document = parse_document("<a><b/></a>")
        with pytest.raises(ReproError, match="target pools are too small"):
            generate_pul(document, 5, min_depth=5)

    def test_sparse_pools_terminate(self):
        # replaceValue can never draw here (no texts/attributes at the
        # depth); generation must still finish rather than spin forever
        document = parse_document("<a><b/></a>")
        pul = generate_pul(document, 9, min_depth=1)
        assert len(pul) == 9
