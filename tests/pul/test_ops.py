"""Unit tests for the Table 2 update primitives."""

import pytest

from repro.errors import InvalidOperationError
from repro.pul.ops import (
    CHILD_INSERTS,
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertBefore,
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    OPERATION_TYPES,
    OpClass,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
    compatible,
    same_insert_kind,
)
from repro.pul.semantics import apply_operation
from repro.xdm.node import Node
from repro.xdm.parser import parse_forest
from repro.xdm.serializer import serialize


class TestStaticConditions:
    def test_a_tree_inside_a_document_applies_like_a_detached_copy(
            self, small_doc):
        """A node does not know where it hangs, so an operation may be
        built from a tree still inside a document; the apply copies its
        parameter trees, so it inserts what a detached copy inserts and
        leaves the tree where it was."""
        inside = small_doc.get(5)  # <d k='v'>tail<e/></d>
        before = serialize(small_doc, with_ids=True)
        detached = small_doc.copy()
        apply_operation(detached, InsertBefore(
            2, [inside.deep_copy(keep_ids=True)]))
        apply_operation(small_doc, InsertBefore(2, [inside]))
        assert serialize(small_doc, with_ids=True) \
            == serialize(detached, with_ids=True)
        assert serialize(small_doc, with_ids=True) != before
        assert small_doc.parent(inside) is small_doc.root
        assert small_doc.root.children[-1] is inside

    def test_insert_rejects_string_parameter(self):
        with pytest.raises(InvalidOperationError):
            InsertBefore(3, ["<a/>"])

    def test_sibling_insert_rejects_attribute_roots(self):
        with pytest.raises(InvalidOperationError):
            InsertAfter(3, [Node.attribute("k", "v")])

    def test_insert_attributes_requires_attribute_roots(self):
        with pytest.raises(InvalidOperationError):
            InsertAttributes(3, [Node.element("a")])
        InsertAttributes(3, [Node.attribute("k", "v")])  # fine

    def test_replace_node_uniform_roots(self):
        mixed = [Node.attribute("k", "v"), Node.element("a")]
        with pytest.raises(InvalidOperationError):
            ReplaceNode(3, mixed)
        ReplaceNode(3, [])  # empty allowed

    def test_empty_insert_rejected(self):
        with pytest.raises(InvalidOperationError):
            InsertBefore(3, [])

    def test_strict_repc_single_text(self):
        ReplaceChildren(3, "text")
        ReplaceChildren(3, [])
        with pytest.raises(InvalidOperationError):
            ReplaceChildren(3, parse_forest("<a/>"))
        ReplaceChildren(3, parse_forest("<a/>"), strict=False)

    def test_rename_requires_name(self):
        with pytest.raises(InvalidOperationError):
            Rename(3, "")

    def test_replace_value_requires_string(self):
        with pytest.raises(InvalidOperationError):
            ReplaceValue(3, 42)

    def test_target_must_be_int(self):
        with pytest.raises(InvalidOperationError):
            Delete("five")


class TestApplicability:
    def test_unknown_target(self, small_doc):
        op = Delete(999)
        assert not op.is_applicable(small_doc)
        assert "not in document" in op.applicability_errors(small_doc)[0]

    def test_sibling_insert_needs_parent(self, small_doc):
        op = InsertBefore(0, parse_forest("<x/>"))
        assert not op.is_applicable(small_doc)

    def test_sibling_insert_rejects_attribute_target(self, small_doc):
        op = InsertAfter(1, parse_forest("<x/>"))  # @x
        assert not op.is_applicable(small_doc)

    def test_child_insert_needs_element(self, small_doc):
        op = InsertIntoAsLast(3, parse_forest("<x/>"))  # text node
        assert not op.is_applicable(small_doc)

    def test_replace_node_kind_match(self, small_doc):
        elem_with_attr = ReplaceNode(2, [Node.attribute("k", "v")])
        assert not elem_with_attr.is_applicable(small_doc)
        attr_with_attr = ReplaceNode(1, [Node.attribute("k", "v")])
        assert attr_with_attr.is_applicable(small_doc)

    def test_replace_node_needs_parent(self, small_doc):
        assert not ReplaceNode(0, []).is_applicable(small_doc)

    def test_delete_root_is_allowed(self, small_doc):
        assert Delete(0).is_applicable(small_doc)

    def test_replace_value_on_element_rejected(self, small_doc):
        assert not ReplaceValue(0, "v").is_applicable(small_doc)
        assert ReplaceValue(3, "v").is_applicable(small_doc)
        assert ReplaceValue(1, "v").is_applicable(small_doc)

    def test_rename_on_text_rejected(self, small_doc):
        assert not Rename(3, "n").is_applicable(small_doc)
        assert Rename(1, "n").is_applicable(small_doc)


class TestClassesAndStages:
    def test_op_classes(self):
        assert InsertInto.op_class is OpClass.INSERT
        assert Delete.op_class is OpClass.DELETE
        for cls in (ReplaceNode, ReplaceValue, ReplaceChildren, Rename):
            assert cls.op_class is OpClass.REPLACE

    def test_stages_follow_the_semantics(self):
        assert InsertInto.stage == 1
        assert InsertAttributes.stage == 1
        assert ReplaceValue.stage == 1
        assert Rename.stage == 1
        assert InsertBefore.stage == 2
        assert InsertAfter.stage == 2
        assert InsertIntoAsFirst.stage == 2
        assert InsertIntoAsLast.stage == 2
        assert ReplaceNode.stage == 3
        assert ReplaceChildren.stage == 4
        assert Delete.stage == 5

    def test_registry_is_complete(self):
        assert len(OPERATION_TYPES) == 11

    def test_symbols(self):
        assert InsertBefore(1, parse_forest("<a/>")).describe().startswith(
            "ins←")


class TestCompatibility:
    def test_example2_of_the_paper(self):
        op1 = Rename(1, "dblp")
        op2 = Rename(1, "myDblp")
        op3 = ReplaceChildren(1, "nopapers")
        assert compatible(op1, op3)
        assert compatible(op2, op3)
        assert not compatible(op1, op2)

    def test_different_targets_always_compatible(self):
        assert compatible(Rename(1, "a"), Rename(2, "b"))

    def test_inserts_always_compatible(self):
        a = InsertIntoAsLast(1, parse_forest("<x/>"))
        b = InsertIntoAsLast(1, parse_forest("<y/>"))
        assert compatible(a, b)
        assert same_insert_kind(a, b)

    def test_deletes_always_compatible(self):
        assert compatible(Delete(1), Delete(1))


class TestIdentity:
    def test_structural_equality(self):
        a = InsertAfter(3, parse_forest("<x>1</x>"))
        b = InsertAfter(3, parse_forest("<x>1</x>"))
        c = InsertAfter(3, parse_forest("<x>2</x>"))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c

    def test_copy_is_deep(self):
        a = InsertAfter(3, parse_forest("<x>1</x>"))
        b = a.copy()
        assert a == b
        b.trees[0].name = "changed"
        assert a != b

    def test_with_trees(self):
        a = InsertAfter(3, parse_forest("<x/>"))
        merged = a.with_trees(list(a.trees) + parse_forest("<y/>"))
        assert isinstance(merged, InsertAfter)
        assert len(merged.trees) == 2

    def test_sort_key_deterministic(self):
        ops = [Delete(5), Rename(2, "a"), Delete(2)]
        keys = [op.sort_key() for op in ops]
        assert sorted(keys) == sorted(keys, key=lambda k: k)

    def test_child_inserts_tuple(self):
        assert InsertInto in CHILD_INSERTS
