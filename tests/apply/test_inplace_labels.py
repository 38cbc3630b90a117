"""In-place label repair equals a whole-tree ``sync``.

The store repairs labels only around the sites a batch touched
(:func:`repro.apply.inplace.apply_batch_in_place`: ``assign_run`` per
run of fresh nodes, ``repoint_children`` per changed child list). The
oracle is :meth:`~repro.labeling.scheme.ContainmentLabeling.sync` run
from the pre-batch labels over the post-batch document: every label's
``to_string()`` — codes, level, parent and sibling pointers — must be
the same, batch after batch, for both encoders.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apply.inplace import apply_batch_in_place
from repro.errors import NotApplicableError
from repro.labeling import CDQSEncoder, ContainmentLabeling
from repro.labeling.codes import CDBSEncoder
from repro.reduction import reduce_deterministic

from tests.strategies import applicable_puls, documents


def _strings(labeling):
    return {node_id: label.to_string()
            for node_id, label in labeling.as_mapping().items()}


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
        assert _strings(labeling) == _strings(before.sync(document))
