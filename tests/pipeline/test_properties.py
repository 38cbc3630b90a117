"""Differential properties of the store's sharded reduction step.

The step is correct iff it is indistinguishable from the sequential
engine: for any document and applicable PUL, ``shard_pul`` +
``ParallelReducer.reduce_shards`` + ``merge_shards`` must yield the
sequential reduction (as a PUL, up to multiset equality) for every shard
count and on both backends, and so apply to the same bytes. The CLI's
``reduce --deterministic | apply`` chain is held to the same sequential
path in ``tests/test_cli.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apply.inmemory import apply_in_memory
from repro.errors import NotApplicableError
from repro.labeling import ContainmentLabeling
from repro.pipeline import ParallelReducer, merge_shards, shard_pul
from repro.reduction import reduce_deterministic
from repro.xdm.serializer import serialize

from tests.strategies import applicable_puls, documents

_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SHARD_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def reducers():
    """One warm reducer per backend, shared by every example."""
    pool = [ParallelReducer(workers=8, backend=backend)
            for backend in ("serial", "thread")]
    yield pool
    for reducer in pool:
        reducer.close()


@st.composite
def document_and_pul(draw):
    document = draw(documents())
    pul = draw(applicable_puls(document, max_ops=8))
    pul.attach_labels(ContainmentLabeling().build(document))
    return document, pul


@settings(**_SETTINGS)
@given(document_and_pul())
def test_pipeline_document_equals_sequential_path(reducers, case):
    """The merged PUL applies to the bytes of the sequential reduce +
    apply — including the XQUF dynamic error cases (e.g. renames that
    collide on an attribute name), where both must reject the PUL."""
    document, pul = case
    text = serialize(document)
    try:
        expected = apply_in_memory(text, reduce_deterministic(pul))
    except NotApplicableError:
        expected = None
    for reducer in reducers:
        for count in _SHARD_COUNTS:
            merged = merge_shards(reducer.reduce_shards(
                shard_pul(pul, count)))
            if expected is None:
                with pytest.raises(NotApplicableError):
                    apply_in_memory(text, merged)
            else:
                assert apply_in_memory(text, merged) == expected


@settings(**_SETTINGS)
@given(document_and_pul())
def test_reduction_invariant_under_shard_count(reducers, case):
    """shard + reduce + merge yields the same PUL for 1, 2 and 8 shards
    on either backend, and that PUL is the sequential reduction
    (multiset equality)."""
    __, pul = case
    sequential = reduce_deterministic(pul)
    for reducer in reducers:
        for count in _SHARD_COUNTS:
            reduced = reducer.reduce_shards(shard_pul(pul, count))
            assert merge_shards(reduced) == sequential


@settings(**_SETTINGS)
@given(document_and_pul())
def test_shards_partition_operations(case):
    """Sharding loses nothing, duplicates nothing, splits no target."""
    __, pul = case
    for count in (2, 8):
        shards = shard_pul(pul, count)
        rejoined = sorted(op.describe() for s in shards for op in s)
        assert rejoined == sorted(op.describe() for op in pul)
        seen = {}
        for index, shard in enumerate(shards):
            for op in shard:
                assert seen.setdefault(op.target, index) == index


@settings(**_SETTINGS)
@given(document_and_pul())
def test_merge_is_union_of_reduced_shards(reducers, case):
    __, pul = case
    for reducer in reducers:
        reduced = reducer.reduce_shards(shard_pul(pul, 4))
        merged = merge_shards(reduced)
        assert sorted(op.describe() for op in merged) == \
            sorted(op.describe() for shard in reduced for op in shard)
