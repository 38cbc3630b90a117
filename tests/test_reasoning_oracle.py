"""Tests for the structural oracles (Table 1 over ids)."""

import pytest
from hypothesis import given, settings

from repro.errors import ReproError
from repro.labeling import ContainmentLabeling
from repro.pul.ops import Delete
from repro.pul.pul import PUL
from repro.pul.semantics import apply_operation
from repro.reasoning import DocumentOracle, LabelOracle, oracle_for
from repro.xdm.node import NodeType

from tests.strategies import documents


def exchange_labels(document):
    """The labels a PUL on ``document`` would carry, for every node."""
    labeling = ContainmentLabeling().build(document)
    return {node_id: labeling.exchange_label(node_id)
            for node_id in labeling.as_mapping()}


def oracles_for(document):
    return DocumentOracle(document), LabelOracle(exchange_labels(document))


class TestAgreement:
    def test_figure1_oracles_agree(self, figure1):
        doc_oracle, label_oracle = oracles_for(figure1)
        ids = sorted(figure1.node_ids())
        for one in ids:
            assert doc_oracle.node_type(one) is label_oracle.node_type(one)
            assert doc_oracle.parent(one) == label_oracle.parent(one)
            assert doc_oracle.left_sibling(one) == \
                label_oracle.left_sibling(one)
            assert doc_oracle.right_sibling(one) == \
                label_oracle.right_sibling(one)
            for two in ids:
                if one == two:
                    continue
                for predicate in ("is_descendant", "is_child",
                                  "is_attribute_of", "is_left_sibling",
                                  "is_first_child", "is_last_child",
                                  "is_nonattr_descendant"):
                    assert getattr(doc_oracle, predicate)(one, two) == \
                        getattr(label_oracle, predicate)(one, two), \
                        (predicate, one, two)

    @settings(max_examples=25, deadline=None)
    @given(documents(max_depth=2, max_children=2))
    def test_random_documents_agree(self, document):
        doc_oracle, label_oracle = oracles_for(document)
        ids = sorted(document.node_ids())
        for one in ids:
            for two in ids:
                if one == two:
                    continue
                assert doc_oracle.is_descendant(one, two) == \
                    label_oracle.is_descendant(one, two)
                assert doc_oracle.is_child(one, two) == \
                    label_oracle.is_child(one, two)

    def test_order_keys_sort_identically(self, figure1):
        doc_oracle, label_oracle = oracles_for(figure1)
        ids = list(figure1.node_ids())
        by_doc = sorted(ids, key=doc_oracle.order_key)
        by_label = sorted(ids, key=label_oracle.order_key)
        assert by_doc == by_label

    def test_intervals_realize_containment(self, figure1):
        doc_oracle, label_oracle = oracles_for(figure1)
        for oracle in (doc_oracle, label_oracle):
            lo_root, hi_root = oracle.interval(0)
            lo_leaf, hi_leaf = oracle.interval(9)
            assert lo_root < lo_leaf and hi_leaf < hi_root


class TestDocumentOracleSnapshot:
    def test_answers_survive_mutation(self, small_doc):
        oracle = DocumentOracle(small_doc)
        apply_operation(small_doc, Delete(2))
        # the oracle still answers about the original state
        assert oracle.is_child(2, 0)
        assert oracle.node_type(2) is NodeType.ELEMENT

    def test_unknown_node_raises(self, small_doc):
        oracle = DocumentOracle(small_doc)
        with pytest.raises(ReproError):
            oracle.node_type(999)


class TestLabelOracle:
    def test_missing_label_raises_informative(self):
        oracle = LabelOracle({})
        with pytest.raises(ReproError, match="label"):
            oracle.parent(7)


class TestOracleFor:
    def test_dispatch(self, figure1):
        labels = exchange_labels(figure1)
        assert isinstance(oracle_for(figure1), DocumentOracle)
        assert isinstance(oracle_for(labels), LabelOracle)
        pul = PUL([], labels=labels)
        assert isinstance(oracle_for(pul), LabelOracle)
        assert isinstance(oracle_for([pul, pul]), LabelOracle)
        existing = DocumentOracle(figure1)
        assert oracle_for(existing) is existing

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            oracle_for(42)
