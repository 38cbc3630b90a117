"""Unit tests for the document abstraction and id discipline."""

import pytest

from repro.errors import DocumentError, UnknownNodeError
from repro.xdm.document import Document, IdAllocator
from repro.xdm.node import Node


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
        node = small_doc.get(2)
        small_doc.detach_node(node)
        assert 2 not in small_doc
        fresh = small_doc.fresh_id()
        assert fresh != 2
        assert fresh > max(small_doc.node_ids())

    def test_insert_children_registers(self, small_doc):
        parent = small_doc.get(0)
        tree = Node.element("new")
        small_doc.insert_children(parent, 0, [tree])
        assert tree.node_id in small_doc
        assert parent.children[0] is tree

    def test_replace_node(self, small_doc):
        target = small_doc.get(2)  # <b>
        replacement = Node.element("z")
        small_doc.replace_node(target, [replacement])
        assert 2 not in small_doc
        assert replacement.node_id in small_doc
        assert small_doc.get(0).children[0] is replacement

    def test_replace_attribute(self, small_doc):
        attr = small_doc.get(1)
        assert attr.is_attribute
        new_attr = Node.attribute("y", "2")
        small_doc.replace_node(attr, [new_attr])
        assert small_doc.get(0).attributes == [new_attr]

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
        node = small_doc.get(2)
        node.detach()
        small_doc.rebuild_index()
        assert 2 not in small_doc

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


class TestPathCopy:
    """A path copy shares its document's id index and keeps its own
    changes apart until it commits; from then on the document it was
    copied from answers lookups from an index of its own tree."""

    def test_copy_and_original_each_answer_for_their_own_tree(self):
        from repro.xdm.parser import parse_document

        document = parse_document('<r><a><b/>t</a><c x="1"/></r>')
        by_name = {node.name: node for node in document.nodes()
                   if node.name is not None}
        copy, originals = document.path_copy([by_name["b"].node_id])
        assert {node.name for node in originals} == {"r", "a", "b"}
        assert copy.get(by_name["c"].node_id) is by_name["c"]  # shared
        copied_a = copy.get(by_name["a"].node_id)
        assert copied_a is not by_name["a"]
        copy.detach_node(by_name["c"])      # c and its attribute x
        fresh = Node.element("d")
        copy.insert_children(copied_a, 0, [fresh])
        ids = sorted(document.node_ids())
        assert len(copy) == len(ids) - 1
        assert fresh.node_id in copy and fresh.node_id not in document
        assert by_name["c"].node_id not in copy
        assert by_name["c"].node_id in document
        copy.commit()
        assert sorted(document.node_ids()) == ids
        assert len(document) == len(ids) and len(copy) == len(ids) - 1
        assert document.get(by_name["a"].node_id) is by_name["a"]
        assert document.get(by_name["c"].node_id) is by_name["c"]
        assert document.find(fresh.node_id) is None
        assert copy.get(by_name["a"].node_id) is copied_a
        assert copy.find(by_name["c"].node_id) is None
        assert copy.get(fresh.node_id) is fresh
