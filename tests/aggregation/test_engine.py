"""Unit tests for the aggregation rules (Figure 5) and Algorithm 2."""

import pytest

from repro.aggregation import aggregate
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
from repro.pul.semantics import apply_pul
from repro.xdm import parse_document, serialize
from repro.xdm.compare import canonical_string
from repro.xdm.node import Node
from repro.xdm.parser import parse_forest


def tree(text, first_id=None):
    """One parameter tree, ids stamped in document order when requested."""
    (root,) = parse_forest(text)
    if first_id is not None:
        for offset, node in enumerate(root.iter_subtree()):
            node.node_id = first_id + offset
    return root


def check_matches_sequence(xml, puls, **kwargs):
    """Aggregate ``puls`` and compare with the sequential application.

    Identity must be preserved for the original nodes and for parameter
    nodes that carry producer-assigned ids; fresh ids of *anonymous* new
    nodes legitimately differ between one combined application and the
    replayed sequence, so they are erased before comparing.
    """
    source = parse_document(xml)
    known = set(source.node_ids())
    for pul in puls:
        for op in pul:
            for tree in op.trees:
                for node in tree.iter_subtree():
                    if node.node_id is not None:
                        known.add(node.node_id)
    combined = aggregate(puls, **kwargs)
    sequential = source.copy()
    for pul in puls:
        apply_pul(sequential, pul, preserve_ids=True)
    aggregated = source.copy()
    apply_pul(aggregated, combined, preserve_ids=True)
    for document in (sequential, aggregated):
        if document.root is None:
            continue
        for node in document.root.iter_subtree():
            if node.node_id not in known:
                node.node_id = None
    key_seq = canonical_string(sequential.root, with_ids=True) \
        if sequential.root else ""
    key_agg = canonical_string(aggregated.root, with_ids=True) \
        if aggregated.root else ""
    assert key_agg == key_seq, (serialize(aggregated),
                                serialize(sequential))
    return combined


class TestWithinPulCollapse:
    def test_a1_a2_same_variant_merge(self):
        pul = PUL([InsertIntoAsLast(0, [tree("<p/>", 10)]),
                   InsertIntoAsLast(0, [tree("<q/>", 11)])])
        combined = check_matches_sequence("<a><b/></a>", [pul])
        assert len(combined) == 1
        assert combined[0].param_key() == "<p/><q/>"

    def test_a2_first_variant_reversed(self):
        pul = PUL([InsertIntoAsFirst(0, [tree("<p/>", 10)]),
                   InsertIntoAsFirst(0, [tree("<q/>", 11)])])
        combined = check_matches_sequence("<a><b/></a>", [pul])
        assert combined[0].param_key() == "<q/><p/>"


class TestCrossPulRules:
    def test_b3_rename_overridden(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([Rename(1, "first")]), PUL([Rename(1, "second")])])
        assert combined == PUL([Rename(1, "second")])

    def test_b3_replace_value(self):
        combined = check_matches_sequence(
            "<a>t</a>",
            [PUL([ReplaceValue(1, "one")]), PUL([ReplaceValue(1, "two")])])
        assert combined == PUL([ReplaceValue(1, "two")])

    def test_b3_replace_children(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([ReplaceChildren(0, "one")]),
             PUL([ReplaceChildren(0, "two")])])
        assert len(combined) == 1
        assert combined[0].param_key() == "two"

    def test_c4_insert_last_cumulates(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertIntoAsLast(0, [tree("<p/>", 10)])]),
             PUL([InsertIntoAsLast(0, [tree("<q/>", 12)])])])
        assert len(combined) == 1
        assert combined[0].param_key() == "<p/><q/>"

    def test_c4_insert_before_cumulates(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertBefore(1, [tree("<p/>", 10)])]),
             PUL([InsertBefore(1, [tree("<q/>", 12)])])])
        assert combined[0].param_key() == "<p/><q/>"

    def test_c5_insert_after_reverses(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertAfter(1, [tree("<p/>", 10)])]),
             PUL([InsertAfter(1, [tree("<q/>", 12)])])])
        assert combined[0].param_key() == "<q/><p/>"

    def test_c5_insert_first_reverses(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertIntoAsFirst(0, [tree("<p/>", 10)])]),
             PUL([InsertIntoAsFirst(0, [tree("<q/>", 12)])])])
        assert combined[0].param_key() == "<q/><p/>"

    def test_insa_both_kept(self):
        first = InsertAttributes(0, [Node.attribute("k1", "1")])
        second = InsertAttributes(0, [Node.attribute("k2", "2")])
        combined = check_matches_sequence(
            "<a/>", [PUL([first]), PUL([second])])
        assert len(combined) == 2


class TestRuleD6:
    def test_update_inside_inserted_tree(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertIntoAsLast(1, [tree("<art><t>X</t></art>", 10)])]),
             PUL([ReplaceValue(12, "Y")])])
        assert len(combined) == 1
        assert "<t>Y</t>" in combined[0].param_key()

    def test_insert_into_inserted_tree(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertIntoAsLast(1, [tree("<art/>", 10)])]),
             PUL([InsertIntoAsLast(10, [tree("<x/>", 20)])])])
        assert len(combined) == 1
        assert combined[0].param_key() == "<art><x/></art>"

    def test_delete_inside_inserted_tree(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertIntoAsLast(1, [tree("<art><t>X</t></art>", 10)])]),
             PUL([Delete(11)])])
        assert combined[0].param_key() == "<art/>"

    def test_delete_entire_inserted_tree_drops_insert(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertIntoAsLast(1, [tree("<art/>", 10)])]),
             PUL([Delete(10)])])
        assert len(combined) == 0

    def test_replace_root_of_inserted_tree(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertIntoAsLast(1, [tree("<art/>", 10)])]),
             PUL([ReplaceNode(10, [tree("<neu/>", 20)])])])
        assert combined[0].param_key() == "<neu/>"

    def test_three_level_chain(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([InsertIntoAsLast(1, [tree("<l1/>", 10)])]),
             PUL([InsertIntoAsLast(10, [tree("<l2/>", 20)])]),
             PUL([InsertIntoAsLast(20, [tree("<l3>x</l3>", 30)])])])
        assert combined[0].param_key() == "<l1><l2><l3>x</l3></l2></l1>"

    def test_rename_inside_replacement_parameter(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([ReplaceNode(1, [tree("<z><w/></z>", 10)])]),
             PUL([Rename(11, "w2")])])
        assert combined[0].param_key() == "<z><w2/></z>"


class TestRepCExtension:
    def test_insert_last_after_repc(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([ReplaceChildren(0, "txt")]),
             PUL([InsertIntoAsLast(0, [tree("<p/>", 10)])])])
        assert len(combined) == 1
        (op,) = combined
        assert op.op_name == "replaceChildren"
        assert not op.strict
        assert op.param_key() == "txt<p/>"

    def test_insert_first_after_repc(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([ReplaceChildren(0, "txt")]),
             PUL([InsertIntoAsFirst(0, [tree("<p/>", 10)])])])
        (op,) = combined
        assert op.param_key() == "<p/>txt"

    def test_into_lands_before_first_of_the_same_pul(self):
        """Within one PUL ins↓ (stage 1) is placed before ins↙ (stage
        2) puts its trees in front, whatever the list order."""
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([ReplaceChildren(0, "txt")]),
             PUL([InsertIntoAsFirst(0, [tree("<p/>", 10)]),
                  InsertInto(0, [tree("<q/>", 20)])])])
        (op,) = combined
        assert op.param_key() == "<p/><q/>txt"

    def test_strict_mode_refuses(self):
        puls = [PUL([ReplaceChildren(0, "txt")]),
                PUL([InsertIntoAsLast(0, [tree("<p/>", 10)])])]
        with pytest.raises(NotApplicableError):
            aggregate(puls, generalized_repc=False)

    def test_later_repc_resets(self):
        combined = check_matches_sequence(
            "<a><b/></a>",
            [PUL([ReplaceChildren(0, "one")]),
             PUL([InsertIntoAsLast(0, [tree("<p/>", 10)])]),
             PUL([ReplaceChildren(0, "fresh")])])
        assert len(combined) == 1
        assert combined[0].param_key() == "fresh"


class TestMetadata:
    def test_labels_and_origin_carried(self):
        first = PUL([Rename(1, "x")], labels={1: "L"}, origin="alice")
        second = PUL([ReplaceValue(2, "y")], labels={2: "M"})
        combined = aggregate([first, second])
        assert combined.labels == {1: "L", 2: "M"}
        assert combined.origin == "alice"

    def test_empty_input(self):
        assert len(aggregate([])) == 0

    def test_single_pul_passthrough(self):
        pul = PUL([Rename(1, "x"), Delete(2)])
        assert aggregate([pul]) == pul
