"""The labels a store attaches to a batch equal an independent oracle.

A resident labeling keeps one integer per node, its two codes; the
level, parent and sibling ids of the label a batch carries into the
log are read off the published tree when
:func:`repro.store.store.coalesce_batch` attaches them
(:meth:`~repro.labeling.scheme.ContainmentLabeling.exchange_label`).
The oracle is :class:`~repro.reasoning.oracle.DocumentOracle` over the
version the batch was coalesced against — a snapshot of node type,
parent and siblings taken by its own walk — and
:func:`repro.xdm.navigation.depth` for the level; the codes are that
version's own. The flushes run both incrementally and under a one-digit
budget, where every flush relabels the whole document.

A reader that still holds version N after N+1 is published must get
N's sibling ids: the working copy's labeling labels the path copy, not
the tree the reader holds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.store.store
from repro.errors import NotApplicableError
from repro.labeling import ContainmentLabeling
from repro.pul.ops import InsertBefore
from repro.pul.pul import PUL
from repro.reasoning import DocumentOracle
from repro.store import DocumentStore
from repro.store.store import coalesce_batch
from repro.xdm import parse_document
from repro.xdm.navigation import depth
from repro.xdm.node import Node
from repro.xdm.serializer import serialize

from tests.strategies import applicable_puls, documents


def _oracle_structure(oracle, node_id):
    return (oracle.node_type(node_id), oracle.parent(node_id),
            oracle.left_sibling(node_id), oracle.right_sibling(node_id))


def _label_structure(label):
    return (label.node_type, label.parent_id, label.left_sibling_id,
            label.right_sibling_id)


def assert_labels_equal_oracle(labels, version, oracle):
    """Every label of ``labels`` has ``version``'s codes, the oracle's
    type, parent and siblings, and the node's depth in ``version``."""
    document = version.document
    for node_id, label in labels.items():
        assert label.node_id == node_id
        assert (label.start, label.end) == \
            version.labeling.digits(node_id)
        assert _label_structure(label) == _oracle_structure(oracle, node_id)
        assert label.level == depth(document, document.get(node_id))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([64, 1]))
def test_attached_labels_equal_the_oracle(data, budget):
    text = serialize(data.draw(documents()))
    attached = []

    def capturing(pending, labeling, **kwargs):
        batch = coalesce_batch(pending, labeling, **kwargs)
        attached.append(batch)
        return batch

    with pytest.MonkeyPatch.context() as patch, \
            DocumentStore(max_code_length=budget) as store:
        patch.setattr(repro.store.store, "coalesce_batch", capturing)
        store.open("d", text)
        for __ in range(data.draw(st.integers(1, 3), label="batches")):
            published = store._entries["d"].published
            oracle = DocumentOracle(published.document)
            pul = data.draw(applicable_puls(published.document, max_ops=6))
            store.submit("d", pul)
            try:
                result = store.flush("d")
            except NotApplicableError:
                return
            assert result.relabel == ("full" if budget == 1
                                      else "incremental")
            batch = attached[-1]
            assert {op.target for op in pul} == set(batch.labels)
            assert_labels_equal_oracle(batch.labels, published, oracle)
            # the retired version, still held here, answers for its tree
            assert store._entries["d"].published is not published
            assert_labels_equal_oracle(
                {node.node_id: published.labeling.exchange_label(
                    node.node_id)
                 for node in published.document.nodes()},
                published, oracle)


def test_a_reader_of_version_n_gets_its_sibling_ids():
    """An insertion between ``a`` and ``b`` gives them a new neighbor
    in version N+1; the version N a reader holds keeps them adjacent."""
    with DocumentStore() as store:
        store.open("d", "<r><a/><b/></r>")
        held = store._entries["d"].published
        a, b = held.document.root.children
        store.submit("d", PUL([InsertBefore(b.node_id,
                                            [Node.element("new")])]))
        store.flush("d")
        published = store._entries["d"].published
        new = published.document.root.children[1]
        assert published.labeling.exchange_label(
            a.node_id).right_sibling_id == new.node_id
        assert published.labeling.exchange_label(
            b.node_id).left_sibling_id == new.node_id
        assert held.labeling.exchange_label(
            a.node_id).right_sibling_id == b.node_id
        assert held.labeling.exchange_label(
            b.node_id).left_sibling_id == a.node_id
        assert new.node_id not in held.labeling
        assert held.labeling.document is held.document
        assert published.labeling.document is published.document


class _CountingChildren(list):
    """A children list that counts the position scans made over it."""

    def __init__(self, items, scans):
        super().__init__(items)
        self.scans = scans

    def index(self, *args):
        self.scans.append(args[0])
        return super().index(*args)


@pytest.mark.parametrize("position", (0, 1, 4))
def test_a_label_finds_its_sibling_position_once(position):
    """One scan of the parent's children gives both sibling ids: every
    attached label is one O(fan-out) pass, not one per neighbour."""
    document = parse_document("<r>" + "<c/>" * 5 + "</r>")
    labeling = ContainmentLabeling().build(document)
    scans = []
    root = document.root
    root.children = _CountingChildren(root.children, scans)
    child = root.children[position]
    label = labeling.exchange_label(child.node_id)
    assert scans == [child]
    assert label.left_sibling_id == (
        None if position == 0 else root.children[position - 1].node_id)
    assert label.right_sibling_id == (
        None if position == 4 else root.children[position + 1].node_id)
