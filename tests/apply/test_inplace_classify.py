"""The batch classification (:func:`repro.apply.inplace.classify`): one
row per PUL operation kind, and the three consumers of the footprint —
the store's path copy, the apply and the index delta — agreeing on when
repairs cannot be localized, with the classified tree left as it was."""

from itertools import chain

import pytest

from repro.apply.inplace import apply_batch_in_place, classify
from repro.index import build_index
from repro.labeling import ContainmentLabeling
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
from repro.xdm import parse_document
from repro.xdm.node import Node
from repro.xdm.serializer import serialize

DOC = '<doc><a x="1"><b>t</b><c/></a><d/></doc>'


def _fresh():
    return [Node.element("n")]


#: op kind -> (build(target id) -> operation, target, sites, removed,
#: touched, needs_sync) — nodes named by element name, "x" the
#: attribute, "t" the text node
TABLE = {
    "insertBefore": (lambda t: InsertBefore(t, _fresh()),
                     "b", ["a"], [], [], False),
    "insertAfter": (lambda t: InsertAfter(t, _fresh()),
                    "b", ["a"], [], [], False),
    "insertIntoAsFirst": (lambda t: InsertIntoAsFirst(t, _fresh()),
                          "a", ["a"], [], [], False),
    "insertIntoAsLast": (lambda t: InsertIntoAsLast(t, _fresh()),
                         "a", ["a"], [], [], False),
    "insertInto": (lambda t: InsertInto(t, _fresh()),
                   "a", ["a"], [], [], False),
    "insertAttributes": (
        lambda t: InsertAttributes(t, [Node.attribute("y", "2")]),
        "a", ["a"], [], [], False),
    "delete": (Delete, "b", ["a"], ["b", "t"], [], False),
    "replaceNode": (lambda t: ReplaceNode(t, _fresh()),
                    "b", ["a"], ["b", "t"], [], False),
    "replaceValue": (lambda t: ReplaceValue(t, "v"),
                     "t", [], [], ["t"], False),
    # children leave, attributes stay
    "replaceChildren": (lambda t: ReplaceChildren(t, [Node.text("r")]),
                        "a", ["a"], ["b", "t", "c"], [], False),
    "rename": (lambda t: Rename(t, "z"), "a", [], [], ["a"], False),
    # a parent-site op on the root has no labeled anchor
    "replaceNode at the root": (lambda t: ReplaceNode(t, _fresh()),
                                "doc", [],
                                ["doc", "a", "x", "b", "t", "c", "d"],
                                [], True),
}


def _named(document):
    names = {}
    for node in document.nodes():
        names[node.name if not node.is_text else node.value] = node
    return names


@pytest.mark.parametrize("row", sorted(TABLE))
def test_footprint_and_consumer_agreement(row):
    build, target, sites, removed, touched, needs_sync = TABLE[row]
    document = parse_document(DOC)
    labeling = ContainmentLabeling().build(document)
    named = _named(document)
    pul = PUL([build(named[target].node_id)])
    assert pul[0].op_name == row.split()[0]

    footprint = classify(document, pul)
    assert footprint.site_ids == [named[n].node_id for n in sites]
    assert footprint.removed_ids == [named[n].node_id for n in removed]
    assert footprint.touched_ids == [named[n].node_id for n in touched]
    assert footprint.needs_sync is needs_sync

    # path copy, apply and index delta read the same footprint:
    # either all of them localize, or all of them fall back
    before = serialize(document, with_ids=True)
    working, __ = document.path_copy(
        chain(footprint.site_ids, footprint.touched_ids))
    working_labels = labeling.copy()
    rebuilds = []
    rebuild_index = working.rebuild_index
    working.rebuild_index = lambda: rebuilds.append(rebuild_index())
    mode = apply_batch_in_place(working, working_labels, pul,
                                footprint=footprint)
    derived = build_index(document, labeling).derive(
        document, working, working_labels, pul, footprint=footprint)
    assert (mode == "sync") is (derived is None) is bool(rebuilds) \
        is needs_sync
    # the copy covered everything the batch changed
    assert serialize(document, with_ids=True) == before
    # and it equals the same batch applied to a whole deep copy
    fresh, fresh_labels = document.copy(), labeling.copy()
    apply_batch_in_place(fresh, fresh_labels, pul)
    assert serialize(working, with_ids=True) \
        == serialize(fresh, with_ids=True)
    assert sorted(working.node_ids()) == sorted(fresh.node_ids())
    assert working_labels.as_mapping() == fresh_labels.as_mapping()
    if derived is not None:
        assert derived == build_index(working, working_labels)


def test_every_operation_kind_has_a_row():
    import repro.pul.ops as ops
    kinds = {cls.op_name for cls in vars(ops).values()
             if isinstance(cls, type)
             and issubclass(cls, ops.UpdateOperation) and cls.op_name}
    assert len(kinds) == 11
    assert kinds == {row.split()[0] for row in TABLE}
