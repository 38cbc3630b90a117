"""Engine-level reduction tests (staging, O3/O4 sweep, label oracles)."""

from repro.labeling import ContainmentLabeling
from repro.pul.ops import (
    Delete,
    InsertAfter,
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
from repro.reasoning import DocumentOracle, LabelOracle
from repro.reduction import reduce_deterministic, reduce_pul
from repro.xdm import parse_document
from repro.xdm.parser import parse_forest


class TestStage1:
    def test_same_target_overrides(self, small_doc):
        oracle = DocumentOracle(small_doc)
        pul = PUL([Rename(2, "dead"), ReplaceValue(7, "kept"),
                   Delete(2), ReplaceNode(2, parse_forest("<z/>"))])
        reduced = reduce_pul(pul, oracle)
        names = sorted(op.op_name for op in reduced)
        assert names == ["replaceNode", "replaceValue"]

    def test_duplicate_deletes_collapse(self, small_doc):
        oracle = DocumentOracle(small_doc)
        reduced = reduce_pul(PUL([Delete(2), Delete(2)]), oracle)
        assert len(reduced) == 1

    def test_descendant_sweep_deep_nesting(self):
        doc = parse_document("<a><b><c><d/></c></b></a>")
        oracle = DocumentOracle(doc)
        pul = PUL([Rename(3, "x"), Delete(2), Delete(1)])
        reduced = reduce_pul(pul, oracle)
        # everything under <b> (node 1) dies; only del(1) remains
        assert reduced == PUL([Delete(1)])

    def test_sweep_inner_killer_also_dropped(self):
        doc = parse_document("<a><b><c><d/></c></b></a>")
        oracle = DocumentOracle(doc)
        # ren on d must die even though its nearest killer (del c) is
        # itself overridden by del b
        pul = PUL([Rename(3, "x"), ReplaceNode(2, parse_forest("<z/>")),
                   Delete(1)])
        assert reduce_pul(pul, oracle) == PUL([Delete(1)])

    def test_repc_sweep_spares_own_attributes(self):
        doc = parse_document("<a><b k='v'><c/></b></a>")
        oracle = DocumentOracle(doc)
        # b=1, @k=2, c=3
        pul = PUL([ReplaceChildren(1, "t"), ReplaceValue(2, "w"),
                   Rename(3, "dead")])
        reduced = reduce_pul(pul, oracle)
        names = sorted(op.op_name for op in reduced)
        assert names == ["replaceChildren", "replaceValue"]

    def test_canonical_collapse_reranks_merged_parameters(self):
        # Definition 9 merges the <p-minimal pair ("p", "p") first; the
        # merged "pp" then sorts after "p<a/>" ('<' < 'p'), so a one-time
        # sort of the three parameters would give "ppp<a/>"
        from repro.reduction import canonical_form, reduce_naive
        doc = parse_document("<a><b/></a>")
        oracle = DocumentOracle(doc)
        pul = PUL([InsertBefore(1, parse_forest("p")),
                   InsertBefore(1, parse_forest("p")),
                   InsertBefore(1, parse_forest("p<a/>"))])
        reduced = canonical_form(pul, oracle)
        assert [op.param_key() for op in reduced] == ["p<a/>pp"]
        assert reduced == reduce_naive(pul, oracle, canonical=True)

    def test_sibling_inserts_survive_killers(self, small_doc):
        oracle = DocumentOracle(small_doc)
        pul = PUL([InsertBefore(2, parse_forest("<p/>")), Delete(2)])
        reduced = reduce_pul(pul, oracle)
        assert len(reduced) == 2


class TestLaterStages:
    def test_chain_through_stages(self):
        # ins↓ + ins↙ (stage 2) then the merged ins↙ meets a first-child
        # ins← at stage 8
        doc = parse_document("<a><b/><c/></a>")
        oracle = DocumentOracle(doc)
        pul = PUL([
            InsertInto(0, parse_forest("<n1/>")),
            InsertIntoAsFirst(0, parse_forest("<n2/>")),
            InsertBefore(1, parse_forest("<n3/>")),
        ])
        reduced = reduce_pul(pul, oracle)
        assert len(reduced) == 1
        (op,) = reduced
        assert op.op_name == "insertBefore"
        assert op.param_key() == "<n2/><n1/><n3/>"

    def test_into_prefers_smallest_child_anchor(self):
        doc = parse_document("<a><b/><c/></a>")
        oracle = DocumentOracle(doc)
        pul = PUL([
            InsertInto(0, parse_forest("<n/>")),
            InsertBefore(1, parse_forest("<x/>")),
            InsertBefore(2, parse_forest("<y/>")),
        ])
        from repro.reduction import canonical_form
        reduced = canonical_form(pul, oracle)
        merged = next(op for op in reduced if op.target == 1)
        assert merged.param_key() == "<n/><x/>"

    def test_only_child_receives_both_edges(self):
        doc = parse_document("<a><b/></a>")
        oracle = DocumentOracle(doc)
        pul = PUL([
            ReplaceNode(1, parse_forest("<z/>")),
            InsertIntoAsFirst(0, parse_forest("<f/>")),
            InsertIntoAsLast(0, parse_forest("<l/>")),
        ])
        reduced = reduce_pul(pul, oracle)
        assert len(reduced) == 1
        (op,) = reduced
        assert op.param_key() == "<f/><z/><l/>"

    def test_stage9_cascade(self):
        doc = parse_document("<a><b/><c/></a>")
        oracle = DocumentOracle(doc)
        pul = PUL([
            ReplaceNode(1, parse_forest("<z/>")),
            InsertAfter(1, parse_forest("<m/>")),   # IR9 (same target)
            InsertBefore(2, parse_forest("<n/>")),  # IR20 (left sibling)
        ])
        reduced = reduce_pul(pul, oracle)
        assert len(reduced) == 1
        (op,) = reduced
        assert op.param_key() == "<z/><m/><n/>"

    def test_i18_then_ir20_chain(self):
        doc = parse_document("<a><b/><c/><d/></a>")
        oracle = DocumentOracle(doc)
        pul = PUL([
            ReplaceNode(1, parse_forest("<z/>")),
            InsertAfter(2, parse_forest("<p/>")),
            InsertBefore(3, parse_forest("<q/>")),
        ])
        reduced = reduce_pul(pul, oracle)
        # ins→(c) merges into ins←(d) (I18); nothing links them to repN(b)
        names = sorted(op.op_name for op in reduced)
        assert names == ["insertBefore", "replaceNode"]
        merged = next(op for op in reduced if op.op_name == "insertBefore")
        assert merged.param_key() == "<p/><q/>"


class TestOracles:
    def test_label_oracle_equivalent_to_document_oracle(self, figure1):
        labeling = ContainmentLabeling().build(figure1)
        pul = PUL([
            Rename(8, "t"),
            ReplaceNode(8, parse_forest("<z/>")),
            InsertAfter(14, parse_forest("<extra/>")),
            InsertIntoAsLast(7, parse_forest("<last/>")),
        ]).attach_labels(labeling)
        via_doc = reduce_pul(pul, DocumentOracle(figure1))
        via_labels = reduce_pul(pul, LabelOracle(pul.labels))
        assert via_doc == via_labels

    def test_pul_labels_used_by_default(self, figure1):
        labeling = ContainmentLabeling().build(figure1)
        pul = PUL([Rename(8, "t"), Delete(8)]).attach_labels(labeling)
        reduced = reduce_pul(pul)
        assert reduced == PUL([Delete(8)])

    def test_labels_preserved_through_reduction(self, figure1):
        labeling = ContainmentLabeling().build(figure1)
        pul = PUL([Delete(8)]).attach_labels(labeling)
        assert reduce_pul(pul).labels == pul.labels


class TestDeterministicStage10:
    def test_surviving_into_becomes_first(self, small_doc):
        oracle = DocumentOracle(small_doc)
        pul = PUL([InsertInto(0, parse_forest("<n/>"))])
        det = reduce_deterministic(pul, oracle)
        (op,) = det
        assert op.op_name == "insertIntoAsFirst"

    def test_consumed_into_not_duplicated(self, small_doc):
        oracle = DocumentOracle(small_doc)
        pul = PUL([InsertInto(0, parse_forest("<n/>")),
                   InsertIntoAsFirst(0, parse_forest("<m/>"))])
        det = reduce_deterministic(pul, oracle)
        assert len(det) == 1
