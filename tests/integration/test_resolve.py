"""Tests for conflict resolution (Algorithm 3) and the producer policies."""

import pytest

from repro.errors import ReconciliationError
from repro.integration import (
    ConflictType,
    ProducerPolicy,
    detect_conflicts,
    reconcile,
)
from repro.integration.policies import (
    exclusion_violates,
    op_inserts_data,
    op_removes_data,
)
from repro.integration.conflicts import TaggedOp
from repro.integration.resolve import order_conflicts
from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
)
from repro.pul.pul import PUL
from repro.reasoning import DocumentOracle
from repro.xdm.node import Node
from repro.xdm.parser import parse_forest


class TestPolicyPredicates:
    def test_inserting_ops(self):
        assert op_inserts_data(InsertAfter(1, parse_forest("<a/>")))
        assert op_inserts_data(ReplaceValue(1, "x"))
        assert op_inserts_data(ReplaceNode(1, parse_forest("<a/>")))
        assert not op_inserts_data(ReplaceNode(1, []))
        assert not op_inserts_data(Delete(1))
        assert not op_inserts_data(Rename(1, "x"))

    def test_removing_ops(self):
        assert op_removes_data(Delete(1))
        assert op_removes_data(ReplaceChildren(1, "t"))
        assert op_removes_data(ReplaceValue(1, "x"))
        assert not op_removes_data(Rename(1, "x"))
        assert not op_removes_data(InsertAfter(1, parse_forest("<a/>")))

    def test_exclusion_violates(self):
        protected = ProducerPolicy(preserve_inserted_data=True)
        tagged = TaggedOp(InsertAfter(1, parse_forest("<a/>")), 0, "p")
        assert exclusion_violates(tagged, {"p": protected})
        assert not exclusion_violates(tagged, {"p": ProducerPolicy()})
        assert not exclusion_violates(tagged, None)

    def test_policy_flags(self):
        assert not any([ProducerPolicy.none().preserve_insertion_order,
                        ProducerPolicy.none().preserve_inserted_data,
                        ProducerPolicy.none().preserve_removed_data])
        strict = ProducerPolicy.strict()
        assert strict.preserve_insertion_order
        assert strict.preserve_removed_data


class TestOrdering:
    def test_focus_document_order_then_precedence(self, small_doc):
        oracle = DocumentOracle(small_doc)
        late = PUL([Rename(5, "a")])
        late2 = PUL([Rename(5, "b")])
        early_override = PUL([Delete(2)])
        early_victim = PUL([Rename(2, "v")])
        __, conflicts = detect_conflicts(
            [late, late2, early_override, early_victim], structure=oracle)
        ordered = order_conflicts(conflicts, oracle)
        assert ordered[0].focus() == 2
        assert ordered[1].focus() == 5

    def test_precedence_on_same_focus(self, small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([ReplaceNode(2, parse_forest("<x/>")),
                 InsertAfter(2, parse_forest("<p/>"))])
        b = PUL([ReplaceNode(2, parse_forest("<y/>")),
                 InsertAfter(2, parse_forest("<q/>"))])
        __, conflicts = detect_conflicts([a, b], structure=oracle)
        ordered = order_conflicts(conflicts, oracle)
        # type 1 among repN first, then type 4 (repN overriding), then
        # the order conflict
        assert ordered[0].conflict_type == \
            ConflictType.REPEATED_MODIFICATION
        assert ordered[-1].conflict_type == ConflictType.INSERTION_ORDER


class TestResolution:
    def test_asymmetric_default_excludes_overridden(self, small_doc):
        oracle = DocumentOracle(small_doc)
        overrider = PUL([Delete(2)], origin="a")
        victim = PUL([Rename(2, "x")], origin="b")
        result = reconcile([overrider, victim], policies={},
                           structure=oracle)
        assert Delete(2) in result
        assert Rename(2, "x") not in result

    def test_asymmetric_protected_victim_excludes_overrider(self,
                                                            small_doc):
        oracle = DocumentOracle(small_doc)
        overrider = PUL([Delete(2)], origin="a")
        victim = PUL([ReplaceValue(3, "keep")], origin="b")
        policies = {"b": ProducerPolicy(preserve_inserted_data=True)}
        result = reconcile([overrider, victim], policies=policies,
                           structure=oracle)
        assert ReplaceValue(3, "keep") in result
        assert Delete(2) not in result

    def test_asymmetric_unsolvable(self, small_doc):
        oracle = DocumentOracle(small_doc)
        overrider = PUL([Delete(2)], origin="a")
        victim = PUL([ReplaceValue(3, "keep")], origin="b")
        policies = {"a": ProducerPolicy(preserve_removed_data=True),
                    "b": ProducerPolicy(preserve_inserted_data=True)}
        with pytest.raises(ReconciliationError):
            reconcile([overrider, victim], policies=policies,
                      structure=oracle)

    def test_order_conflict_generates_merged_insert(self, small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([InsertAfter(2, parse_forest("<p/>"))], origin="a")
        b = PUL([InsertAfter(2, parse_forest("<q/>"))], origin="b")
        result = reconcile([a, b], policies={}, structure=oracle)
        assert len(result) == 1
        (op,) = result
        assert op.op_name == "insertAfter"
        assert set(op.param_key().split("/><")) and len(op.trees) == 2

    def test_order_policy_takes_anchor_side(self, small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([InsertAfter(2, parse_forest("<p/>"))], origin="a")
        b = PUL([InsertAfter(2, parse_forest("<q/>"))], origin="b")
        policies = {"b": ProducerPolicy(preserve_insertion_order=True)}
        result = reconcile([a, b], policies=policies, structure=oracle)
        (op,) = result
        # ins→ content adjacent to the anchor comes first
        assert op.param_key() == "<q/><p/>"

    def test_order_policy_for_trailing_anchor(self, small_doc):
        from repro.pul.ops import InsertIntoAsLast
        oracle = DocumentOracle(small_doc)
        a = PUL([InsertIntoAsLast(0, parse_forest("<p/>"))], origin="a")
        b = PUL([InsertIntoAsLast(0, parse_forest("<q/>"))], origin="b")
        policies = {"b": ProducerPolicy(preserve_insertion_order=True)}
        result = reconcile([a, b], policies=policies, structure=oracle)
        (op,) = result
        # ins↘ content adjacent to the end comes last
        assert op.param_key() == "<p/><q/>"

    def test_order_two_demands_fail(self, small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([InsertAfter(2, parse_forest("<p/>"))], origin="a")
        b = PUL([InsertAfter(2, parse_forest("<q/>"))], origin="b")
        policies = {"a": ProducerPolicy(preserve_insertion_order=True),
                    "b": ProducerPolicy(preserve_insertion_order=True)}
        with pytest.raises(ReconciliationError):
            reconcile([a, b], policies=policies, structure=oracle)

    def test_keep_one_prefers_protected(self, small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([ReplaceValue(3, "first")], origin="a")
        b = PUL([ReplaceValue(3, "second")], origin="b")
        policies = {"b": ProducerPolicy(preserve_inserted_data=True)}
        result = reconcile([a, b], policies=policies, structure=oracle)
        assert ReplaceValue(3, "second") in result
        assert ReplaceValue(3, "first") not in result

    def test_keep_one_two_protected_different_content_fails(self,
                                                            small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([ReplaceValue(3, "first")], origin="a")
        b = PUL([ReplaceValue(3, "second")], origin="b")
        policies = {"a": ProducerPolicy(preserve_inserted_data=True),
                    "b": ProducerPolicy(preserve_inserted_data=True)}
        with pytest.raises(ReconciliationError):
            reconcile([a, b], policies=policies, structure=oracle)

    def test_cascade_auto_solves(self, small_doc):
        oracle = DocumentOracle(small_doc)
        # del(0) overrides both renames (type 5); once the renames are
        # excluded, their type-1 conflict is automatically solved
        a = PUL([Delete(5)], origin="a")
        b = PUL([Rename(8, "x")], origin="b")
        c = PUL([Rename(8, "y")], origin="c")
        result = reconcile([a, b, c], policies={}, structure=oracle)
        assert result == PUL([Delete(5)])

    def test_attribute_conflict_keeps_one(self, small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([InsertAttributes(2, [Node.attribute("k", "1")])],
                origin="a")
        b = PUL([InsertAttributes(2, [Node.attribute("k", "2")])],
                origin="b")
        result = reconcile([a, b], policies={}, structure=oracle)
        assert len(result) == 1

    def test_reconciled_pul_is_applicable_and_conflict_free(self,
                                                            small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([Delete(2), InsertAfter(4, parse_forest("<p/>"))],
                origin="a")
        b = PUL([Rename(2, "x"), InsertAfter(4, parse_forest("<q/>"))],
                origin="b")
        result = reconcile([a, b], policies={}, structure=oracle)
        assert result.is_applicable(small_doc)
        __, conflicts = detect_conflicts([result, PUL()],
                                         structure=oracle)
        assert conflicts == []

    def test_no_conflicts_returns_merge(self, small_doc):
        oracle = DocumentOracle(small_doc)
        a = PUL([Rename(2, "x")], origin="a")
        b = PUL([ReplaceValue(7, "y")], origin="b")
        result = reconcile([a, b], policies={}, structure=oracle)
        assert len(result) == 2
