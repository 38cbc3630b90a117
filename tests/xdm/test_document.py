"""Unit tests for the document abstraction and id discipline."""

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apply.inplace import classify, replay_batch
from repro.errors import DocumentError, NotApplicableError, UnknownNodeError
from repro.labeling import ContainmentLabeling
from repro.pul.ops import Delete
from repro.pul.semantics import apply_operation
from repro.reduction import reduce_deterministic
from repro.xdm.document import Document, IdAllocator
from repro.xdm.node import Node

from tests.strategies import applicable_puls, documents


class TestIdAllocator:
    def test_sequential(self):
        allocator = IdAllocator()
        assert [allocator.allocate() for __ in range(3)] == [0, 1, 2]

    def test_strided_spaces_disjoint(self):
        a = IdAllocator(start=0, stride=3)
        b = IdAllocator(start=1, stride=3)
        c = IdAllocator(start=2, stride=3)
        drawn = {alloc.allocate() for alloc in (a, b, c) for __ in range(5)}
        assert len(drawn) == 15  # interleaved allocation never collides
        ids_a = {a.allocate() for __ in range(50)}
        ids_b = {b.allocate() for __ in range(50)}
        assert not ids_a & ids_b

    def test_reserve_at_least_respects_stride(self):
        allocator = IdAllocator(start=1, stride=3)
        allocator.reserve_at_least(10)
        value = allocator.allocate()
        assert value >= 10
        assert value % 3 == 1

    def test_reserve_large_floor_is_fast(self):
        allocator = IdAllocator()
        allocator.reserve_at_least(10 ** 12)
        assert allocator.allocate() == 10 ** 12

    def test_invalid_stride(self):
        with pytest.raises(DocumentError):
            IdAllocator(stride=0)


class TestDocument:
    def test_ids_assigned_in_document_order(self, small_doc):
        kinds = [(n.node_id, n.node_type.value) for n in small_doc.nodes()]
        assert [node_id for node_id, __ in kinds] == list(range(len(kinds)))

    def test_get_and_find(self, small_doc):
        assert small_doc.get(0).name == "a"
        assert small_doc.find(999) is None
        with pytest.raises(UnknownNodeError):
            small_doc.get(999)

    def test_contains_and_len(self, small_doc):
        assert 0 in small_doc
        assert len(small_doc) == len(list(small_doc.nodes()))

    def test_root_must_be_element(self):
        with pytest.raises(DocumentError):
            Document(root=Node.text("x"))

    def test_two_roots_rejected(self, small_doc):
        with pytest.raises(DocumentError):
            small_doc.set_root(Node.element("again"))

    def test_ids_never_reused_after_detach(self, small_doc):
        apply_operation(small_doc, Delete(2))
        assert 2 not in small_doc
        fresh = small_doc.fresh_id()
        assert fresh != 2
        assert fresh > max(small_doc.node_ids())

    def test_parent_map(self, small_doc):
        """Every node's parent id is the one its tree gives it, the root
        has none, and so has an id the document does not hold."""
        for node, parent in small_doc.root.iter_with_parents():
            assert small_doc.parent(node) is parent
            assert small_doc.parent_id(node.node_id) == (
                None if parent is None else parent.node_id)
        assert small_doc.parent_id(999) is None

    def test_register_tree_enters_parents(self, small_doc):
        host = small_doc.get(4)
        tree = Node.element("new")
        tree.append_child(Node.text("t"))
        host.append_child(tree)
        small_doc.register_tree(tree, host)
        assert small_doc.parent(tree) is host
        assert small_doc.parent(tree.children[0]) is tree
        small_doc.forget_ids([tree.node_id, tree.children[0].node_id])
        assert small_doc.find(tree.node_id) is None
        assert small_doc.parent_id(tree.node_id) is None

    def test_copy_preserves_ids_and_is_independent(self, small_doc):
        clone = small_doc.copy()
        assert {n.node_id for n in clone.nodes()} == \
            {n.node_id for n in small_doc.nodes()}
        clone.get(0).name = "mutated"
        assert small_doc.get(0).name == "a"

    def test_copy_allocator_continues(self, small_doc):
        clone = small_doc.copy()
        assert clone.fresh_id() >= len(small_doc)

    def test_rebuild_index_assigns_fresh_in_doc_order(self, small_doc):
        parent = small_doc.get(0)
        first = Node.element("p")
        last = Node.element("q")
        parent.insert_child(0, first)
        parent.append_child(last)
        small_doc.rebuild_index()
        assert first.node_id < last.node_id
        assert first.node_id >= len(list(small_doc.nodes())) - 2

    def test_rebuild_index_drops_unreachable(self, small_doc):
        small_doc.root.children.remove(small_doc.get(2))
        small_doc.rebuild_index()
        assert 2 not in small_doc
        assert small_doc.parent_id(3) is None  # 3 hung below 2

    def test_rebuild_index_rejects_duplicates(self, small_doc):
        dup = Node.element("dup", node_id=0)
        small_doc.get(0).append_child(dup)
        with pytest.raises(DocumentError):
            small_doc.rebuild_index()

    def test_elements_by_name(self, small_doc):
        assert [n.node_id for n in small_doc.elements_by_name("c")] == [4]

    def test_max_id(self, small_doc):
        assert small_doc.max_id() == max(small_doc.node_ids())

    def test_empty_document(self):
        document = Document()
        assert len(document) == 0
        assert list(document.nodes()) == []


def _walked(document):
    """``{id: parent id}`` of every node of ``document``'s tree, from
    the tree alone."""
    return {node.node_id: None if parent is None else parent.node_id
            for node, parent in document.root.iter_with_parents()}


def _answers(document):
    """What ``document``'s maps answer for every node of its tree."""
    return {node.node_id: (document.find(node.node_id),
                           document.parent_id(node.node_id))
            for node in document.nodes()}


class TestPathCopy:
    """A path copy slices its document's id table and writes its copied
    nodes into its own slots: from the copy on, each answers for its
    own tree, and the document copied from keeps its table as it was
    (a published version's columns are never written again)."""

    def test_copy_and_original_each_answer_for_their_own_tree(self):
        from repro.xdm.parser import parse_document

        document = parse_document('<r><a><b/>t</a><c x="1"/></r>')
        by_name = {node.name: node for node in document.nodes()
                   if node.name is not None}
        before = _answers(document)
        copy = document.path_copy([by_name["b"].node_id])
        assert {node.name for node in copy.nodes()
                if node.name is not None
                and document.find(node.node_id) is not node} \
            == {"r", "a", "b"}
        assert copy.get(by_name["c"].node_id) is by_name["c"]  # shared
        copied_a = copy.get(by_name["a"].node_id)
        assert copied_a is not by_name["a"]
        assert copy._nodes is not document._nodes
        assert copy._parents is not document._parents
        # drop c and its attribute x, insert d into a
        copy.root.children.remove(by_name["c"])
        copy.forget_ids(node.node_id
                        for node in by_name["c"].iter_subtree())
        fresh = Node.element("d")
        copied_a.insert_child(0, fresh)
        copy.register_tree(fresh, copied_a)
        ids = sorted(document.node_ids())
        assert len(copy) == len(ids) - 1
        assert fresh.node_id in copy and fresh.node_id not in document
        assert by_name["c"].node_id not in copy
        assert by_name["c"].node_id in document
        assert sorted(document.node_ids()) == ids
        assert len(document) == len(ids)
        assert _answers(document) == before
        assert document.get(by_name["a"].node_id) is by_name["a"]
        assert document.find(fresh.node_id) is None
        assert copy.parent_id(fresh.node_id) == copied_a.node_id
        assert copy.get(by_name["a"].node_id) is copied_a
        assert copy.find(by_name["c"].node_id) is None
        assert copy.get(fresh.node_id) is fresh


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_length_and_parents_of_path_copies(data):
    """``len`` of a path copy is its tree's node count, and its parent
    column gives every node the parent its tree does, across inserts,
    deletes and replacements; the copied document keeps answering as
    before, and so does every earlier version of the chain."""
    document = data.draw(documents())
    labeling = ContainmentLabeling().build(document)
    versions = []
    for __ in range(data.draw(st.integers(1, 3), label="batches")):
        pul = data.draw(applicable_puls(document, max_ops=6))
        pul.attach_labels(labeling)
        reduced = reduce_deterministic(pul)
        versions.append((document, _answers(document)))
        footprint = classify(document, reduced)
        copy = document.path_copy(
            footprint.site_ids + footprint.touched_ids)
        copy_labels = labeling.copy()
        try:
            if replay_batch(copy, copy_labels, reduced,
                            footprint=footprint) is not None:
                copy_labels.sync(copy)
        except NotApplicableError:
            return
        walked = _walked(copy)
        assert len(copy) == len(walked)
        assert {node_id: copy.parent_id(node_id) for node_id in walked} \
            == walked
        for version, answers in versions:
            assert _answers(version) == answers
            assert len(version) == len(answers)
        document, labeling = copy, copy_labels
