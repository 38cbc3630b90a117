"""Unit tests for tree navigation (the test oracle for label predicates)."""

from repro.xdm.navigation import (
    adjacent_siblings,
    compare_document_order,
    depth,
    document_position,
    is_ancestor,
    is_attribute_of,
    is_first_child,
    is_last_child,
    is_left_sibling,
    is_parent,
    left_sibling,
    precedes,
    right_sibling,
)


def nodes_by_id(document):
    return {n.node_id: n for n in document.nodes()}


class TestOrder:
    def test_document_order_matches_ids(self, small_doc):
        ordered = sorted(small_doc.nodes(),
                         key=lambda node: document_position(small_doc, node))
        assert [n.node_id for n in ordered] == \
            sorted(n.node_id for n in small_doc.nodes())

    def test_precedes(self, small_doc):
        nodes = nodes_by_id(small_doc)
        assert precedes(small_doc, nodes[0], nodes[2])
        assert not precedes(small_doc, nodes[2], nodes[0])
        assert compare_document_order(small_doc, nodes[3], nodes[3]) == 0

    def test_attribute_sorts_after_owner_before_children(self, small_doc):
        nodes = nodes_by_id(small_doc)
        # 5=<d>, 6=@k, 7='tail'
        assert precedes(small_doc, nodes[5], nodes[6])
        assert precedes(small_doc, nodes[6], nodes[7])


class TestAxes:
    def test_parent_child(self, small_doc):
        nodes = nodes_by_id(small_doc)
        assert is_parent(small_doc, nodes[0], nodes[2])
        assert not is_parent(small_doc, nodes[0], nodes[3])
        assert not is_parent(small_doc, nodes[0], nodes[1])  # attribute

    def test_ancestor(self, small_doc):
        nodes = nodes_by_id(small_doc)
        assert is_ancestor(small_doc, nodes[0], nodes[3])
        assert is_ancestor(small_doc, nodes[0], nodes[1])
        assert not is_ancestor(small_doc, nodes[3], nodes[0])

    def test_attribute_of(self, small_doc):
        nodes = nodes_by_id(small_doc)
        assert is_attribute_of(small_doc, nodes[1], nodes[0])
        assert not is_attribute_of(small_doc, nodes[2], nodes[0])

    def test_siblings(self, small_doc):
        nodes = nodes_by_id(small_doc)
        assert left_sibling(small_doc, nodes[4]) is nodes[2]
        assert right_sibling(small_doc, nodes[4]) is nodes[5]
        assert left_sibling(small_doc, nodes[2]) is None
        assert right_sibling(small_doc, nodes[5]) is None
        assert is_left_sibling(small_doc, nodes[2], nodes[4])
        assert not is_left_sibling(small_doc, nodes[4], nodes[2])

    def test_adjacent_siblings_pair_the_two_neighbours(self, small_doc):
        nodes = nodes_by_id(small_doc)
        assert adjacent_siblings(small_doc, nodes[4]) == (nodes[2], nodes[5])
        assert adjacent_siblings(small_doc, nodes[2]) == (None, nodes[4])
        assert adjacent_siblings(small_doc, nodes[5]) == (nodes[4], None)
        assert adjacent_siblings(small_doc, small_doc.root) == (None, None)
        # an attribute has no siblings
        assert adjacent_siblings(small_doc, nodes[6]) == (None, None)

    def test_first_last_child(self, small_doc):
        nodes = nodes_by_id(small_doc)
        assert is_first_child(small_doc, nodes[2])
        assert is_last_child(small_doc, nodes[5])
        assert not is_first_child(small_doc, nodes[4])
        assert not is_last_child(small_doc, nodes[4])

    def test_root_has_no_siblings(self, small_doc):
        root = small_doc.root
        assert left_sibling(small_doc, root) is None
        assert right_sibling(small_doc, root) is None
        assert not is_first_child(small_doc, root)

    def test_depth(self, small_doc):
        nodes = nodes_by_id(small_doc)
        assert depth(small_doc, nodes[0]) == 0
        assert depth(small_doc, nodes[2]) == 1
        assert depth(small_doc, nodes[3]) == 2
