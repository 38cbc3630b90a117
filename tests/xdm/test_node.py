"""Unit tests for the node model."""

import pytest

from repro.errors import DocumentError
from repro.xdm.node import Node, NodeType


class TestConstruction:
    def test_element(self):
        node = Node.element("a")
        assert node.is_element
        assert node.name == "a"
        assert node.value is None

    def test_text(self):
        node = Node.text("hello")
        assert node.is_text
        assert node.value == "hello"
        assert node.name is None

    def test_attribute(self):
        node = Node.attribute("k", "v")
        assert node.is_attribute
        assert (node.name, node.value) == ("k", "v")

    def test_element_requires_name(self):
        with pytest.raises(DocumentError):
            Node(NodeType.ELEMENT)

    def test_element_refuses_value(self):
        with pytest.raises(DocumentError):
            Node(NodeType.ELEMENT, name="a", value="v")

    def test_text_refuses_name(self):
        with pytest.raises(DocumentError):
            Node(NodeType.TEXT, name="a")

    def test_type_codes(self):
        assert NodeType.from_code("e") is NodeType.ELEMENT
        assert NodeType.from_code("a") is NodeType.ATTRIBUTE
        assert NodeType.from_code("t") is NodeType.TEXT
        with pytest.raises(DocumentError):
            NodeType.from_code("x")


class TestStructure:
    def test_append_child(self):
        parent = Node.element("a")
        child = parent.append_child(Node.element("b"))
        assert parent.children == [child]

    def test_a_node_holds_no_parent(self):
        """The tree points downwards only: where a node hangs is its
        document's to answer."""
        assert "parent" not in Node.__slots__
        child = Node.element("a").append_child(Node.element("b"))
        assert not hasattr(child, "parent")

    def test_insert_child_position(self):
        parent = Node.element("a")
        first = parent.append_child(Node.element("b"))
        second = parent.insert_child(0, Node.element("c"))
        assert parent.children == [second, first]

    def test_text_child(self):
        parent = Node.element("a")
        parent.append_child(Node.text("x"))
        assert parent.children[0].is_text

    def test_attributes_are_separate(self):
        parent = Node.element("a")
        attr = parent.append_attribute(Node.attribute("k", "v"))
        assert parent.attributes == [attr]
        assert parent.children == ()

    def test_attribute_cannot_be_child(self):
        parent = Node.element("a")
        with pytest.raises(DocumentError):
            parent.append_child(Node.attribute("k", "v"))

    def test_element_cannot_be_attribute(self):
        parent = Node.element("a")
        with pytest.raises(DocumentError):
            parent.append_attribute(Node.element("b"))

    def test_text_holds_no_children(self):
        text = Node.text("x")
        with pytest.raises(DocumentError):
            text.append_child(Node.element("b"))


class TestTraversal:
    def _tree(self):
        root = Node.element("r")
        root.append_attribute(Node.attribute("k", "v"))
        a = root.append_child(Node.element("a"))
        a.append_child(Node.text("t1"))
        root.append_child(Node.element("b"))
        return root

    def test_iter_subtree_document_order(self):
        root = self._tree()
        kinds = [(n.node_type.value, n.name or n.value)
                 for n in root.iter_subtree()]
        assert kinds == [("e", "r"), ("a", "k"), ("e", "a"), ("t", "t1"),
                         ("e", "b")]

    def test_iter_subtree_without_attributes(self):
        root = self._tree()
        names = [n.name or n.value
                 for n in root.iter_subtree(include_attributes=False)]
        assert names == ["r", "a", "t1", "b"]

    def test_descendants_excludes_self(self):
        root = self._tree()
        assert root not in list(root.descendants())

    def test_iter_with_parents(self):
        root = self._tree()
        pairs = [(n.name or n.value, p.name if p is not None else None)
                 for n, p in root.iter_with_parents()]
        assert pairs == [("r", None), ("k", "r"), ("a", "r"), ("t1", "a"),
                         ("b", "r")]
        assert [n for n, __ in root.iter_with_parents()] \
            == list(root.iter_subtree())

    def test_string_value(self):
        root = self._tree()
        assert root.string_value() == "t1"
        assert root.attributes[0].string_value() == "v"


class TestDeepCopy:
    def test_copy_is_detached_and_equal_shape(self):
        root = Node.element("a")
        root.append_attribute(Node.attribute("k", "v"))
        root.append_child(Node.text("x"))
        copy = root.deep_copy()
        assert copy is not root
        assert copy.attributes[0].value == "v"
        assert copy.children[0].value == "x"

    def test_copy_drops_ids_by_default(self):
        root = Node.element("a", node_id=7)
        assert root.deep_copy().node_id is None

    def test_copy_keeps_ids_on_request(self):
        root = Node.element("a", node_id=7)
        assert root.deep_copy(keep_ids=True).node_id == 7

    def test_copy_does_not_alias(self):
        root = Node.element("a")
        child = root.append_child(Node.element("b"))
        copy = root.deep_copy()
        child.name = "changed"
        assert copy.children[0].name == "b"
