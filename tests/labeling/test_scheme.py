"""Tests for label construction and update-tolerant maintenance."""

from array import array

import pytest
from hypothesis import given, settings

from repro.labeling import CDQSEncoder, ContainmentLabeling
from repro.labeling.scheme import WIDTH
from repro.pul.ops import Delete
from repro.pul.semantics import apply_operation
from repro.reasoning import LabelOracle
from repro.workloads import generate_xmark
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


def digit_codes(labeling):
    """Every node's ``(start, end)`` digit strings."""
    return {node_id: labeling.digits(node_id)
            for node_id in labeling.as_mapping()}


def restored_from(labeling, document):
    """:meth:`ContainmentLabeling.restored` over the code columns a
    payload of ``labeling`` carries."""
    return ContainmentLabeling.restored(
        *labeling.code_columns(document.span), labeling.max_code_length,
        document=document)


def exchange_labels(labeling):
    """Every label of ``labeling`` in the form it travels in."""
    return {node_id: labeling.exchange_label(node_id)
            for node_id in labeling.as_mapping()}


def assert_labels_match_tree(document, labeling):
    """Every Table 1 predicate the reasoning modules evaluate on labels
    (a :class:`LabelOracle` over the labeling's exchange labels) must
    agree with the navigational ground truth."""
    nodes = list(document.nodes())
    labels = exchange_labels(labeling)
    for node in nodes:
        label = labels[node.node_id]
        assert label.node_type is node.node_type
        assert label.level == depth(document, node)
        assert label.parent_id == document.parent_id(node.node_id)
    oracle = LabelOracle(labels)
    doc = document
    for one in nodes:
        v1 = one.node_id
        for two in nodes:
            if one is two:
                continue
            v2 = two.node_id
            assert oracle.is_descendant(v1, v2) == is_ancestor(doc, two, one)
            assert oracle.is_child(v1, v2) == is_parent(doc, two, one)
            assert oracle.is_attribute_of(v1, v2) == \
                is_attribute_of(doc, one, two)
            assert oracle.is_left_sibling(v1, v2) == \
                is_left_sibling(doc, one, two)
            assert oracle.is_first_child(v1, v2) == (
                is_parent(doc, two, one) and is_first_child(doc, one))
            assert oracle.is_last_child(v1, v2) == (
                is_parent(doc, two, one) and is_last_child(doc, one))
            assert (oracle.order_key(v1) < oracle.order_key(v2)) == \
                precedes(doc, one, two)
            assert oracle.is_nonattr_descendant(v1, v2) == (
                is_ancestor(doc, two, one)
                and not is_attribute_of(doc, one, two))


class TestBuild:
    def test_figure1_predicates(self, figure1):
        labeling = ContainmentLabeling().build(figure1)
        assert_labels_match_tree(figure1, labeling)

    def test_cdqs_encoder(self, figure1):
        labeling = ContainmentLabeling(encoder=CDQSEncoder()).build(figure1)
        assert_labels_match_tree(figure1, labeling)

    def test_cdqs_codes_are_shorter(self):
        """Over one document, CDQS codes total fewer characters than CDBS
        codes for the same positions — the reason [15] proposes them."""
        document = generate_xmark(scale=0.02, seed=29)

        def total_chars(labeling):
            return sum(len(start) + len(end)
                       for start, end in digit_codes(labeling).values())

        cdbs = ContainmentLabeling().build(document)
        cdqs = ContainmentLabeling(encoder=CDQSEncoder()).build(document)
        assert total_chars(cdqs) < total_chars(cdbs)

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
        with pytest.raises(LabelingError):
            labeling.exchange_label(999)

    def test_the_codes_are_two_array_columns(self, small_doc):
        """After every way of making labels — build, sync, a batch's
        runs, a restore and a full relabel — a labeling at its first
        width keeps its codes in two ``array('Q')`` columns indexed by
        id and nothing else: no per-node int object, no far id.
        ``find``/``label_of`` give a node's two codes, ``digits`` and
        ``exchange_label`` give them back as digits."""
        def assert_columns(labeling):
            assert len(labeling) == len(small_doc)
            for column in (labeling._starts, labeling._ends):
                assert type(column) is array and column.typecode == "Q"
            assert labeling._far == {}
            for node in small_doc.nodes():
                node_id = node.node_id
                start, end = labeling.label_of(node_id)
                assert (labeling._starts[node_id],
                        labeling._ends[node_id]) == (start, end)
                assert labeling.find(node_id) == (start, end)
                assert labeling.start_of(node_id) == start
                exchanged = labeling.exchange_label(node_id)
                assert (exchanged.start, exchanged.end) == \
                    labeling.digits(node_id)

        labeling = ContainmentLabeling().build(small_doc)
        assert_columns(labeling)
        root = small_doc.root
        synced = Node.element("synced")
        root.insert_child(1, synced)
        small_doc.register_tree(synced, root)
        labeling.sync(small_doc)
        assert_columns(labeling)
        run = [Node.element("run")]
        root.insert_child(0, run[0])
        small_doc.register_tree(run[0], root)
        left = labeling.label_of(root.node_id)[0]
        right = labeling.label_of(root.children[1].node_id)[0]
        labeling.assign_runs([(left, right, run)])
        assert_columns(labeling)
        assert_columns(restored_from(labeling, small_doc))
        labeling.build(small_doc)
        assert_columns(labeling)

    def test_the_mapping_is_a_read_only_copy(self, small_doc):
        """``as_mapping`` gives the labels as they are when it is
        called, each node's two codes, and refuses writes: the columns
        hold no map to view."""
        labeling = ContainmentLabeling().build(small_doc)
        view = labeling.as_mapping()
        assert view == {node.node_id: labeling.label_of(node.node_id)
                        for node in small_doc.nodes()}
        with pytest.raises(TypeError):
            view[999] = ("1", "2")
        with pytest.raises(TypeError):
            del view[0]
        labeling.forget(2)
        assert 2 in view and 2 not in labeling.as_mapping()

    @pytest.mark.parametrize("encoder", [None, CDQSEncoder()],
                             ids=["CDBS", "CDQS"])
    def test_codes_are_one_balanced_run(self, small_doc, encoder):
        """``build`` hands out exactly ``initial_codes`` over the
        document's boundary slots: every start and end, in order."""
        labeling = ContainmentLabeling(encoder=encoder).build(small_doc)
        codes = sorted(code for pair in digit_codes(labeling).values()
                       for code in pair)
        assert codes == labeling.encoder.initial_codes(2 * len(labeling))

    @settings(max_examples=30, deadline=None)
    @given(documents())
    def test_random_documents(self, document):
        labeling = ContainmentLabeling().build(document)
        assert_labels_match_tree(document, labeling)


class TestSync:
    def test_existing_codes_never_change(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        before = digit_codes(labeling)
        parent = small_doc.get(0)
        for position in (0, 2, len(parent.children)):
            tree = Node.element("ins{}".format(position))
            parent.insert_child(min(position, len(parent.children)), tree)
            small_doc.register_tree(tree, parent)
        labeling.sync(small_doc)
        for node_id, codes in before.items():
            assert labeling.digits(node_id) == codes

    def test_new_nodes_labeled_consistently(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        parent = small_doc.get(4)  # <c/>
        tree = Node.element("kid")
        tree.append_child(Node.text("payload"))
        parent.append_child(tree)
        small_doc.register_tree(tree, parent)
        labeling.sync(small_doc)
        assert_labels_match_tree(small_doc, labeling)

    def test_removed_nodes_forgotten(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        apply_operation(small_doc, Delete(2))
        labeling.sync(small_doc)
        assert 2 not in labeling
        assert_labels_match_tree(small_doc, labeling)

    def test_sibling_pointers_updated(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        parent = small_doc.get(0)
        middle = Node.element("mid")
        parent.insert_child(1, middle)
        small_doc.register_tree(middle, parent)
        labeling.sync(small_doc)
        left = labeling.exchange_label(parent.children[0].node_id)
        mid = labeling.exchange_label(middle.node_id)
        right = labeling.exchange_label(parent.children[2].node_id)
        assert left.right_sibling_id == middle.node_id
        assert mid.left_sibling_id == parent.children[0].node_id
        assert mid.right_sibling_id == parent.children[2].node_id
        assert right.left_sibling_id == middle.node_id

    @settings(max_examples=20, deadline=None)
    @given(documents(), documents(max_depth=1))
    def test_random_insertion_keeps_invariants(self, document, extra):
        labeling = ContainmentLabeling().build(document)
        before = digit_codes(labeling)
        host = document.root
        graft = extra.root.deep_copy()
        host.insert_child(len(host.children) // 2, graft)
        document.register_tree(graft, host)
        labeling.sync(document)
        assert_labels_match_tree(document, labeling)
        for node_id, codes in before.items():
            assert labeling.digits(node_id) == codes


def test_forget(small_doc):
    labeling = ContainmentLabeling().build(small_doc)
    labeling.forget(2)
    assert 2 not in labeling
    labeling.forget(2)  # idempotent


@pytest.mark.parametrize("encoder", [None, CDQSEncoder()],
                         ids=["CDBS", "CDQS"])
def test_assign_run_labels_as_sync_does(small_doc, encoder):
    """A run of attached subtrees labeled by ``assign_runs`` between its
    neighbors' codes carries the labels a whole-tree ``sync`` from the
    same pre-state gives it: codes, levels, parent and sibling ids."""
    labeling = ContainmentLabeling(encoder=encoder).build(small_doc)
    before = labeling.copy()
    host = small_doc.get(5)  # <d k='v'>tail<e/></d>
    kid = Node.element("kid")
    kid.append_child(Node.text("payload"))
    run = [kid, Node.element("kin")]
    for offset, node in enumerate(run):
        host.insert_child(offset, node)
        small_doc.register_tree(node, host)
    labeling.assign_runs([(bound(labeling, 6, 1), bound(labeling, 7, 0),
                           run)])
    expected = before.sync(small_doc)
    assert {node_id: label.to_string()
            for node_id, label in exchange_labels(labeling).items()} == \
        {node_id: label.to_string()
         for node_id, label in exchange_labels(expected).items()}
    assert_labels_match_tree(small_doc, labeling)


def bound(labeling, node_id, side):
    """The start (``side`` 0) or end (1) code of ``node_id`` as a run
    bound of :meth:`ContainmentLabeling.assign_runs`."""
    return labeling.label_of(node_id)[side]


def hot_spot(document, labeling, count):
    """Insert ``count`` elements into ``document``, each right after the
    previous one, between the root's children ``b`` (2) and ``c`` (4);
    label each attached node with ``assign_runs`` as the in-place
    applier does. Returns ``max_code_length`` before and after every
    insertion."""
    root = document.root
    previous = document.get(2)
    observed = [labeling.max_code_length]
    for __ in range(count):
        node = Node.element("hot")
        root.insert_child(root.children.index(previous) + 1, node)
        document.register_tree(node, root)
        labeling.assign_runs([(bound(labeling, previous.node_id, 1),
                               bound(labeling, 4, 0), [node])])
        previous = node
        observed.append(labeling.max_code_length)
    return observed


@pytest.mark.parametrize("encoder", [None, CDQSEncoder()],
                         ids=["CDBS", "CDQS"])
def test_a_widen_keeps_digits_and_document_order(small_doc, encoder):
    """Codes grown past the 64-digit width at one spot in the middle of
    the document widen the labeling. Every label keeps its digits,
    start-code order stays document order, a run labeled in the batch
    that widens gets the codes a sync gives it, and a restore from the
    digits gives the same integers."""
    labeling = ContainmentLabeling(encoder=encoder).build(small_doc)
    before_digits = digit_codes(labeling)
    root, host = small_doc.root, small_doc.get(5)  # <d k='v'>
    previous = small_doc.get(2)
    while labeling.max_code_length <= WIDTH:
        pre_batch = labeling.copy()
        hot, cold = Node.element("hot"), Node.element("cold")
        root.insert_child(root.children.index(previous) + 1, hot)
        small_doc.register_tree(hot, root)
        host.insert_child(0, cold)
        small_doc.register_tree(cold, host)
        labeling.assign_runs([
            (bound(labeling, previous.node_id, 1), bound(labeling, 4, 0),
             [hot]),
            (bound(labeling, 6, 1),
             bound(labeling, host.children[1].node_id, 0), [cold])])
        synced = pre_batch.sync(small_doc)
        assert {node_id: label.to_string()
                for node_id, label in exchange_labels(labeling).items()} \
            == {node_id: label.to_string()
                for node_id, label in exchange_labels(synced).items()}
        previous = hot
    assert labeling.max_code_length > WIDTH
    for node_id, codes in before_digits.items():
        assert labeling.digits(node_id) == codes
    order = [node.node_id for node in root.iter_subtree()]
    assert sorted(order, key=labeling.label_of) == order
    assert_labels_match_tree(small_doc, labeling)
    if encoder is None:  # a restore labels with the store's encoder
        restored = restored_from(labeling, small_doc)
        assert type(restored._starts) is list
        assert restored.as_mapping() == labeling.as_mapping()
        assert digit_codes(restored) == digit_codes(labeling)


class TestMaxCodeLength:
    def test_build_tracks_longest_code(self, small_doc):
        labeling = ContainmentLabeling().build(small_doc)
        expected = max(
            max(len(start), len(end))
            for start, end in digit_codes(labeling).values())
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

    def test_restored_keeps_the_recorded_watermark(self, small_doc):
        """The watermark is monotone between rebuilds, so a restored
        labeling keeps the one recorded, above its longest code."""
        built = ContainmentLabeling().build(small_doc)
        watermark = built.max_code_length + 5
        restored = ContainmentLabeling.restored(
            *built.code_columns(small_doc.span), watermark,
            document=small_doc)
        assert restored.max_code_length == watermark
        assert restored.as_mapping() == built.as_mapping()
        assert restored.document is small_doc
