"""Property tests of Proposition 4: the aggregate is substitutable to the
sequential application, on randomly generated PUL chains."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation import aggregate
from repro.pul.equivalence import sequential_obtainable_strings
from repro.pul.semantics import (
    ObtainableLimitExceeded,
    apply_pul,
    obtainable_set,
)
from repro.xdm.compare import canonical_string

from tests.strategies import applicable_puls, documents

_SETTINGS = dict(max_examples=50, deadline=None)


@settings(**_SETTINGS)
@given(st.data())
def test_aggregate_matches_deterministic_sequence(data):
    """Deterministic oracle: aggregate and sequence agree byte-for-byte
    under the deterministic tie-breaks when no ins↓ is involved."""
    document = data.draw(documents(max_depth=2, max_children=2))
    first = data.draw(applicable_puls(document, max_ops=4,
                                      stamp_ids=True, include_into=False))
    intermediate = document.copy()
    try:
        apply_pul(intermediate, first, preserve_ids=True)
    except Exception:
        return  # e.g. duplicate attribute collision — invalid premise
    if intermediate.root is None:
        return
    second = data.draw(applicable_puls(intermediate, max_ops=4,
                                       stamp_ids=True, include_into=False))
    try:
        combined = aggregate([first, second])
    except Exception:
        return
    sequential = intermediate
    try:
        apply_pul(sequential, second, preserve_ids=True)
    except Exception:
        return
    aggregated = document.copy()
    apply_pul(aggregated, combined, preserve_ids=True)
    key_seq = canonical_string(sequential.root, with_ids=True) \
        if sequential.root else ""
    key_agg = canonical_string(aggregated.root, with_ids=True) \
        if aggregated.root else ""
    assert key_agg == key_seq


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_aggregate_substitutable_with_into(data):
    """Proposition 4 proper: with ins↓ in play the aggregate is only
    substitutable — every aggregate outcome is a sequential outcome."""
    document = data.draw(documents(max_depth=2, max_children=2))
    first = data.draw(applicable_puls(document, max_ops=3,
                                      stamp_ids=True))
    intermediate = document.copy()
    try:
        apply_pul(intermediate, first, preserve_ids=True)
    except Exception:
        return
    if intermediate.root is None:
        return
    second = data.draw(applicable_puls(intermediate, max_ops=3,
                                       stamp_ids=True))
    try:
        combined = aggregate([first, second])
        agg_outcomes = set(obtainable_set(
            document, combined, limit=2000, with_ids=True,
            preserve_ids=True).keys())
        seq_outcomes = sequential_obtainable_strings(
            document, [first, second], limit=2000, with_ids=True,
            preserve_ids=True)
    except (ObtainableLimitExceeded, RuntimeError):
        return
    except Exception:
        return
    assert agg_outcomes <= seq_outcomes
