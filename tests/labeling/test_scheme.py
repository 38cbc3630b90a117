"""Tests for label construction and update-tolerant maintenance."""

import pytest
from hypothesis import given, settings

from repro.labeling import CDQSEncoder, ContainmentLabeling
from repro.labeling import predicates as P
from repro.xdm.navigation import (
    depth,
    is_ancestor,
    is_attribute_of,
    is_first_child,
    is_last_child,
    is_left_sibling,
    is_parent,
    precedes,
)
from repro.xdm.node import Node

from tests.strategies import documents


def assert_labels_match_tree(document, labeling):
    """Every Table 1 predicate computed on labels must agree with the
    navigational ground truth."""
    nodes = list(document.nodes())
    for node in nodes:
        label = labeling.label_of(node.node_id)
        assert label.node_type is node.node_type
        assert label.level == depth(node)
        parent = node.parent
        assert label.parent_id == (parent.node_id if parent else None)
    for one in nodes:
        l1 = labeling.label_of(one.node_id)
        for two in nodes:
            if one is two:
                continue
            l2 = labeling.label_of(two.node_id)
            assert P.is_descendant(l1, l2) == is_ancestor(two, one)
            assert P.is_child(l1, l2) == is_parent(two, one)
            assert P.is_attribute_of(l1, l2) == is_attribute_of(one, two)
            assert P.is_left_sibling(l1, l2) == is_left_sibling(one, two)
            assert P.is_first_child(l1, l2) == (
                is_parent(two, one) and is_first_child(one))
            assert P.is_last_child(l1, l2) == (
                is_parent(two, one) and is_last_child(one))
            assert P.precedes(l1, l2) == precedes(one, two)
            assert P.is_nonattribute_descendant(l1, l2) == (
                is_ancestor(two, one) and not is_attribute_of(one, two))


class TestBuild:
    def test_figure1_predicates(self, figure1):
        labeling = ContainmentLabeling().build(figure1)
        assert_labels_match_tree(figure1, labeling)

    def test_cdqs_encoder(self, figure1):
        labeling = ContainmentLabeling(encoder=CDQSEncoder()).build(figure1)
        assert_labels_match_tree(figure1, labeling)

    def test_empty_document(self):
        from repro.xdm.document import Document
        labeling = ContainmentLabeling().build(Document())
        assert len(labeling) == 0

    def test_lookup_api(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        assert 0 in labeling
        assert labeling.find(999) is None
        from repro.errors import LabelingError
        with pytest.raises(LabelingError):
            labeling.label_of(999)

    @pytest.mark.parametrize("encoder", [None, CDQSEncoder()],
                             ids=["CDBS", "CDQS"])
    def test_codes_are_one_balanced_run(self, small_doc, encoder):
        """``build`` hands out exactly ``initial_codes`` over the
        document's boundary slots: every start and end, in order."""
        labeling = ContainmentLabeling(encoder=encoder).build(small_doc)
        codes = sorted(code for label in labeling.as_mapping().values()
                       for code in (label.start, label.end))
        assert codes == labeling.encoder.initial_codes(2 * len(labeling))

    @settings(max_examples=30, deadline=None)
    @given(documents())
    def test_random_documents(self, document):
        labeling = ContainmentLabeling().build(document)
        assert_labels_match_tree(document, labeling)


class TestSync:
    def test_existing_codes_never_change(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        before = {nid: (lab.start, lab.end)
                  for nid, lab in labeling.as_mapping().items()}
        parent = small_doc.get(0)
        for position in (0, 2, len(parent.children)):
            tree = Node.element("ins{}".format(position))
            parent.insert_child(min(position, len(parent.children)), tree)
            small_doc.register_tree(tree)
        labeling.sync(small_doc)
        for node_id, codes in before.items():
            label = labeling.label_of(node_id)
            assert (label.start, label.end) == codes

    def test_new_nodes_labeled_consistently(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        parent = small_doc.get(4)  # <c/>
        tree = Node.element("kid")
        tree.append_child(Node.text("payload"))
        parent.append_child(tree)
        small_doc.register_tree(tree)
        labeling.sync(small_doc)
        assert_labels_match_tree(small_doc, labeling)

    def test_removed_nodes_forgotten(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        victim = small_doc.get(2)
        small_doc.detach_node(victim)
        labeling.sync(small_doc)
        assert 2 not in labeling
        assert_labels_match_tree(small_doc, labeling)

    def test_sibling_pointers_updated(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        parent = small_doc.get(0)
        middle = Node.element("mid")
        parent.insert_child(1, middle)
        small_doc.register_tree(middle)
        labeling.sync(small_doc)
        left = labeling.label_of(parent.children[0].node_id)
        mid = labeling.label_of(middle.node_id)
        right = labeling.label_of(parent.children[2].node_id)
        assert left.right_sibling_id == middle.node_id
        assert mid.left_sibling_id == parent.children[0].node_id
        assert mid.right_sibling_id == parent.children[2].node_id
        assert right.left_sibling_id == middle.node_id

    @settings(max_examples=20, deadline=None)
    @given(documents(), documents(max_depth=1))
    def test_random_insertion_keeps_invariants(self, document, extra):
        labeling = ContainmentLabeling().build(document)
        before = {nid: (lab.start, lab.end)
                  for nid, lab in labeling.as_mapping().items()}
        host = document.root
        graft = extra.root.deep_copy()
        host.insert_child(len(host.children) // 2, graft)
        document.register_tree(graft)
        labeling.sync(document)
        assert_labels_match_tree(document, labeling)
        for node_id, codes in before.items():
            label = labeling.label_of(node_id)
            assert (label.start, label.end) == codes


def test_forget(small_doc):
    labeling = ContainmentLabeling().build(small_doc)
    labeling.forget(2)
    assert 2 not in labeling
    labeling.forget(2)  # idempotent


@pytest.mark.parametrize("encoder", [None, CDQSEncoder()],
                         ids=["CDBS", "CDQS"])
def test_assign_run_labels_as_sync_does(small_doc, encoder):
    """A run of attached subtrees labeled by ``assign_run`` between its
    neighbors' codes, then ``repoint_children``, carries the labels a
    whole-tree ``sync`` from the same pre-state gives it: codes, levels,
    parent and sibling pointers."""
    labeling = ContainmentLabeling(encoder=encoder).build(small_doc)
    before = labeling.copy()
    host = small_doc.get(5)  # <d k='v'>tail<e/></d>
    kid = Node.element("kid")
    kid.append_child(Node.text("payload"))
    run = [kid, Node.element("kin")]
    for offset, node in enumerate(run):
        host.insert_child(offset, node)
        small_doc.register_tree(node)
    labeling.assign_run(labeling.label_of(5), run,
                        labeling.label_of(6).end, labeling.label_of(7).start)
    labeling.repoint_children(host)
    expected = before.sync(small_doc)
    assert {node_id: label.to_string()
            for node_id, label in labeling.as_mapping().items()} == \
        {node_id: label.to_string()
         for node_id, label in expected.as_mapping().items()}
    assert_labels_match_tree(small_doc, labeling)


def hot_spot(document, labeling, count):
    """Insert ``count`` elements into ``document``, each right after the
    previous one, between the root's children ``b`` (2) and ``c`` (4);
    label each attached node with ``assign_run`` as the in-place applier
    does. Returns ``max_code_length`` before and after every insertion."""
    root = document.root
    right = labeling.label_of(4).start
    previous = document.get(2)
    observed = [labeling.max_code_length]
    for __ in range(count):
        node = Node.element("hot")
        root.insert_child(root.children.index(previous) + 1, node)
        document.register_tree(node)
        labeling.assign_run(labeling.label_of(0), [node],
                            labeling.label_of(previous.node_id).end, right)
        labeling.repoint_children(root)
        previous = node
        observed.append(labeling.max_code_length)
    return observed


class TestMaxCodeLength:
    def test_build_tracks_longest_code(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        expected = max(
            max(len(label.start), len(label.end))
            for label in labeling.as_mapping().values())
        assert labeling.max_code_length == expected
        assert ContainmentLabeling().max_code_length == 0

    @pytest.mark.parametrize("encoder", [None, CDQSEncoder()],
                             ids=["CDBS", "CDQS"])
    def test_grows_under_hot_spot_insertions(self, small_doc, encoder):
        """Repeated insertion between the same neighbors lengthens codes
        monotonically — the headroom signal the store's full-relabel
        fallback watches."""
        labeling = ContainmentLabeling(encoder=encoder).build(small_doc)
        observed = hot_spot(small_doc, labeling, 8)
        assert observed == sorted(observed)
        assert observed[-1] > observed[0]
        assert_labels_match_tree(small_doc, labeling)

    def test_full_rebuild_rebalances(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        degraded = hot_spot(small_doc, labeling, 8)[-1]
        labeling.build(small_doc)
        assert labeling.max_code_length < degraded

    def test_import_label_tracks(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        from repro.labeling.containment import ExtendedLabel
        from repro.xdm.node import NodeType
        long_code = "1" * (labeling.max_code_length + 5)
        labeling.import_label(ExtendedLabel(
            node_id=999, node_type=NodeType.ELEMENT,
            start=long_code, end=long_code + "1", level=1))
        assert labeling.max_code_length == len(long_code) + 1
