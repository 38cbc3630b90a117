"""In-place label repair equals a whole-tree ``sync``.

The store repairs labels only around the sites a batch touched
(:func:`repro.apply.inplace.apply_batch_in_place`: ``assign_runs``
over the runs of fresh nodes). The oracle is
:meth:`~repro.labeling.scheme.ContainmentLabeling.sync` run from the
pre-batch labels over the post-batch document: every node's label —
one integer holding its ``(start, end)`` codes — must be the same,
batch after batch, for both encoders, and the repaired labeling must
label the post-batch document. A resident label holds nothing else;
the level, parent and sibling ids an exchange label carries are read
off that document.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apply.inplace import apply_batch_in_place
from repro.errors import NotApplicableError
from repro.labeling import CDQSEncoder, ContainmentLabeling
from repro.labeling.codes import CDBSEncoder
from repro.reduction import reduce_deterministic

from tests.strategies import applicable_puls, documents


def _codes(labeling):
    return dict(labeling.as_mapping())


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([CDBSEncoder, CDQSEncoder]))
def test_inplace_repair_equals_sync(data, encoder_cls):
    document = data.draw(documents())
    labeling = ContainmentLabeling(encoder=encoder_cls()).build(document)
    for __ in range(data.draw(st.integers(1, 4), label="batches")):
        pul = data.draw(applicable_puls(document, max_ops=8))
        pul.attach_labels(labeling)
        pul = reduce_deterministic(pul)
        before = labeling.copy()
        try:
            apply_batch_in_place(document, labeling, pul)
        except NotApplicableError:
            return  # a failed batch: the writer drops its pair
        assert labeling.document is document
        assert _codes(labeling) == _codes(before.sync(document))


def test_pointers_inside_an_inserted_tree_equal_sync():
    """The exchange labels of an inserted element's children point at
    each other."""
    from repro.pul.ops import InsertIntoAsLast
    from repro.pul.pul import PUL
    from repro.xdm.node import Node
    from repro.xdm.parser import parse_document

    document = parse_document("<r><a/></r>")
    labeling = ContainmentLabeling().build(document)
    tree = Node.element("x")
    for child in (Node.element("y"), Node.text("t"), Node.element("z")):
        tree.append_child(child)
    pul = PUL([InsertIntoAsLast(document.root.node_id, [tree])])
    pul.attach_labels(labeling)
    before = labeling.copy()
    assert apply_batch_in_place(document, labeling, pul) == "incremental"
    assert _codes(labeling) == _codes(before.sync(document))
    y, text, z = document.root.children[-1].children
    assert labeling.exchange_label(text.node_id).left_sibling_id \
        == y.node_id
    assert labeling.exchange_label(text.node_id).right_sibling_id \
        == z.node_id
