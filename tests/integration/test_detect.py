"""Tests for conflict detection (Algorithm 1)."""

from repro.integration import ConflictType, detect_conflicts, integrate
from repro.labeling import ContainmentLabeling
from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertBefore,
    InsertAttributes,
    InsertInto,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
)
from repro.pul.pul import PUL, merge
from repro.reasoning import DocumentOracle
from repro.xdm import parse_document
from repro.xdm.node import Node
from repro.xdm.parser import parse_forest


def conflicts_of(document, *puls):
    __, conflicts = detect_conflicts(list(puls),
                                     structure=DocumentOracle(document))
    return conflicts


class TestDetection:
    def test_no_conflicts_between_disjoint_puls(self, small_doc):
        a = PUL([Rename(2, "x")])
        b = PUL([ReplaceValue(7, "y")])
        assert conflicts_of(small_doc, a, b) == []

    def test_type1_same_modification(self, small_doc):
        found = conflicts_of(small_doc,
                             PUL([Rename(2, "x")]), PUL([Rename(2, "y")]))
        assert [c.conflict_type for c in found] == \
            [ConflictType.REPEATED_MODIFICATION]

    def test_type1_needs_distinct_puls(self, small_doc):
        # two compatible modifications inside ONE pul are not a conflict
        found = conflicts_of(small_doc,
                             PUL([ReplaceValue(3, "a")]),
                             PUL([Rename(2, "b")]))
        assert found == []

    def test_type2_attribute_clash(self, small_doc):
        a = PUL([InsertAttributes(2, [Node.attribute("k", "1")])])
        b = PUL([InsertAttributes(2, [Node.attribute("k", "2")])])
        found = conflicts_of(small_doc, a, b)
        assert [c.conflict_type for c in found] == \
            [ConflictType.REPEATED_ATTRIBUTE_INSERTION]

    def test_type2_disjoint_names_no_conflict(self, small_doc):
        a = PUL([InsertAttributes(2, [Node.attribute("k1", "1")])])
        b = PUL([InsertAttributes(2, [Node.attribute("k2", "2")])])
        assert conflicts_of(small_doc, a, b) == []

    def test_type2_transitive_component(self, small_doc):
        a = PUL([InsertAttributes(2, [Node.attribute("k1", "1"),
                                      Node.attribute("k2", "1")])])
        b = PUL([InsertAttributes(2, [Node.attribute("k2", "2"),
                                      Node.attribute("k3", "2")])])
        c = PUL([InsertAttributes(2, [Node.attribute("k3", "3")])])
        found = conflicts_of(small_doc, a, b, c)
        assert len(found) == 1
        assert len(found[0].operations) == 3

    def test_type3_order(self, small_doc):
        a = PUL([InsertAfter(2, parse_forest("<p/>"))])
        b = PUL([InsertAfter(2, parse_forest("<q/>"))])
        found = conflicts_of(small_doc, a, b)
        assert [c.conflict_type for c in found] == \
            [ConflictType.INSERTION_ORDER]

    def test_type3_not_for_into(self, small_doc):
        a = PUL([InsertInto(0, parse_forest("<p/>"))])
        b = PUL([InsertInto(0, parse_forest("<q/>"))])
        assert conflicts_of(small_doc, a, b) == []

    def test_type4_local_override(self, small_doc):
        a = PUL([Delete(2)])
        b = PUL([Rename(2, "x")])
        found = conflicts_of(small_doc, a, b)
        assert [c.conflict_type for c in found] == \
            [ConflictType.LOCAL_OVERRIDE]
        assert found[0].overrider.op == Delete(2)

    def test_type4_del_vs_del_is_not_a_conflict(self, small_doc):
        assert conflicts_of(small_doc, PUL([Delete(2)]),
                            PUL([Delete(2)])) == []

    def test_type5_non_local(self, small_doc):
        a = PUL([Delete(0)])
        b = PUL([Rename(2, "x")])
        found = conflicts_of(small_doc, a, b)
        assert [c.conflict_type for c in found] == \
            [ConflictType.NON_LOCAL_OVERRIDE]

    def test_type5_repc_spares_attributes(self, small_doc):
        a = PUL([ReplaceChildren(0, "t")])
        b = PUL([ReplaceValue(1, "w")])  # @x of the root
        assert conflicts_of(small_doc, a, b) == []

    def test_type5_deep_nesting(self):
        doc = parse_document("<a><b><c><d/></c></b></a>")
        a = PUL([ReplaceNode(1, parse_forest("<z/>"))])
        b = PUL([Rename(3, "x")])
        found = conflicts_of(doc, a, b)
        assert len(found) == 1
        assert found[0].conflict_type == ConflictType.NON_LOCAL_OVERRIDE

    def test_empty_repn_normalized_to_delete(self, small_doc):
        # repN(v, []) ~ del(v): del-vs-del exclusion applies (footnote 3)
        a = PUL([ReplaceNode(2, [])])
        b = PUL([Delete(2)])
        assert conflicts_of(small_doc, a, b) == []

    def test_clean_operations_returned(self, small_doc):
        a = PUL([Rename(2, "x"), ReplaceValue(7, "keep")])
        b = PUL([Rename(2, "y")])
        clean, conflicts = detect_conflicts(
            [a, b], structure=DocumentOracle(small_doc))
        assert len(conflicts) == 1
        assert [t.op.op_name for t in clean] == ["replaceValue"]


class TestExample7:
    """The paper's Example 7 on an equivalent document shape."""

    DOC = ("<r><author>AA</author><person><name>BB</name></person>"
           "<page>33</page></r>")
    # r=0 author=1 'AA'=2 person=3 name=4 'BB'=5 page=6 '33'=7

    def _puls(self):
        d1 = PUL([InsertAttributes(3, [Node.attribute(
                      "email", "catania@disi")]),
                  InsertAfter(1, parse_forest("<author>G G</author>")),
                  ReplaceValue(7, "34")], origin="p1")
        d2 = PUL([InsertAttributes(3, [Node.attribute(
                      "email", "catania@gmail")]),
                  InsertAfter(1, parse_forest("<author>A C</author>")),
                  ReplaceValue(7, "35"),
                  ReplaceValue(5, "F C"),
                  InsertBefore(3, parse_forest("<author>F C</author>"))],
                 origin="p2")
        d3 = PUL([ReplaceChildren(3, "G G")], origin="p3")
        return d1, d2, d3

    def test_exactly_the_four_conflicts(self):
        document = parse_document(self.DOC)
        d1, d2, d3 = self._puls()
        found = conflicts_of(document, d1, d2, d3)
        types = sorted(int(c.conflict_type) for c in found)
        assert types == [1, 2, 3, 5]
        type5 = next(c for c in found if int(c.conflict_type) == 5)
        assert type5.overrider.op.op_name == "replaceChildren"
        assert [t.op.op_name for t in type5.operations] == ["replaceValue"]

    def test_label_oracle_gives_same_conflicts(self):
        document = parse_document(self.DOC)
        labeling = ContainmentLabeling().build(document)
        d1, d2, d3 = self._puls()
        for pul in (d1, d2, d3):
            pul.attach_labels(labeling)
        clean_doc, via_doc = detect_conflicts(
            [d1, d2, d3], structure=DocumentOracle(document))
        clean_lab, via_lab = detect_conflicts([d1, d2, d3])
        assert sorted(c.describe() for c in via_doc) == \
            sorted(c.describe() for c in via_lab)


class TestProposition2:
    def test_no_conflicts_means_merge(self, small_doc):
        from repro.pul.equivalence import (
            obtainable_strings,
            sequential_obtainable_strings,
        )
        a = PUL([InsertAttributes(0, [Node.attribute("n1", "1")]),
                 ReplaceValue(3, "MM"),
                 ReplaceNode(4, parse_forest("<k/>"))])
        b = PUL([InsertAttributes(0, [Node.attribute("n2", "2")]),
                 Rename(5, "dd")])
        result = integrate([a, b], structure=DocumentOracle(small_doc))
        assert not result.has_conflicts
        assert result.pul == merge(a, b)
        keys = obtainable_strings(small_doc, result.pul)
        assert keys == sequential_obtainable_strings(small_doc, [a, b])
        assert keys == sequential_obtainable_strings(small_doc, [b, a])
