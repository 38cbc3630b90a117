"""Property-based tests of Proposition 1 on random documents and PULs,
plus agreement between the optimized and the naive reference engine."""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pul.equivalence import obtainable_strings
from repro.pul.ops import (
    InsertAfter,
    InsertBefore,
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
)
from repro.pul.pul import PUL
from repro.pul.semantics import ObtainableLimitExceeded
from repro.reasoning import DocumentOracle
from repro.reduction import (
    canonical_form,
    reduce_deterministic,
    reduce_naive,
    reduce_pul,
)
from repro.xdm import Node, parse_document
from repro.xdm.parser import parse_forest

from tests.strategies import applicable_puls, documents

_SETTINGS = dict(max_examples=60, deadline=None)


@settings(**_SETTINGS)
@given(st.data())
def test_reductions_are_substitutable(data):
    """Proposition 1, first item: every reduction flavour is
    substitutable to the original PUL."""
    document = data.draw(documents(max_depth=2, max_children=2))
    pul = data.draw(applicable_puls(document, max_ops=5))
    oracle = DocumentOracle(document)
    try:
        full = obtainable_strings(document, pul, limit=4000)
    except ObtainableLimitExceeded:
        return
    for reducer in (reduce_pul, reduce_deterministic, canonical_form):
        reduced = reducer(pul, oracle)
        assert obtainable_strings(document, reduced, limit=4000) <= full


@settings(**_SETTINGS)
@given(st.data())
def test_cardinality_chain(data):
    """Proposition 1, second item: |O(∆)| >= |O(∆^O)| >= |O(∆^H)| = 1."""
    document = data.draw(documents(max_depth=2, max_children=2))
    pul = data.draw(applicable_puls(document, max_ops=5))
    oracle = DocumentOracle(document)
    try:
        full = len(obtainable_strings(document, pul, limit=4000))
        plain = len(obtainable_strings(
            document, reduce_pul(pul, oracle), limit=4000))
        deterministic = len(obtainable_strings(
            document, reduce_deterministic(pul, oracle), limit=4000))
    except ObtainableLimitExceeded:
        return
    assert full >= plain >= deterministic == 1


@settings(**_SETTINGS)
@given(st.data())
def test_canonical_is_unique(data):
    """Proposition 1, third item: the canonical form does not depend on
    the operations' list order."""
    document = data.draw(documents(max_depth=2, max_children=2))
    pul = data.draw(applicable_puls(document, max_ops=6))
    oracle = DocumentOracle(document)
    reference = canonical_form(pul, oracle)
    ops = pul.operations()
    seed = data.draw(st.integers(0, 2 ** 16))
    shuffled = ops[:]
    random.Random(seed).shuffle(shuffled)
    assert canonical_form(PUL(shuffled), oracle) == reference


@settings(**_SETTINGS)
@given(st.data())
def test_reduction_idempotent(data):
    """Proposition 1, fourth item: (∆^r)^r = ∆^r."""
    document = data.draw(documents(max_depth=2, max_children=2))
    pul = data.draw(applicable_puls(document, max_ops=6))
    oracle = DocumentOracle(document)
    for reducer in (reduce_pul, reduce_deterministic, canonical_form):
        once = reducer(pul, oracle)
        assert reducer(once, oracle) == once


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_optimized_engine_matches_naive_reference(data):
    """The staged O(k log k) engine computes a result equivalent to the
    naive pairwise engine: identical canonical forms, and plain
    reductions of identical size with identical obtainable sets."""
    document = data.draw(documents(max_depth=2, max_children=2))
    pul = data.draw(applicable_puls(document, max_ops=5))
    oracle = DocumentOracle(document)
    fast = canonical_form(pul, oracle)
    slow = reduce_naive(pul, oracle, canonical=True)
    assert fast == slow


#: insertion parameters, several a prefix of another's serialization
_PARAMETERS = ["p", "pp", "q", "<a/>", "p<a/>", "<a/>p", "<b>p</b>"]
_INSERTIONS = [InsertBefore, InsertAfter, InsertInto, InsertIntoAsFirst,
               InsertIntoAsLast]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_INSERTIONS),
                          st.sampled_from(_PARAMETERS)),
                min_size=2, max_size=6))
@example([(InsertBefore, "p")] * 3 + [(InsertBefore, "pp")])
def test_optimized_engine_matches_naive_on_one_target(insertions):
    """Many insertions on one node: the staged engine merges their
    parameters in the naive engine's Definition 9 order, also when a
    merged parameter sorts differently from its parts."""
    document = parse_document("<r><t/></r>")
    oracle = DocumentOracle(document)
    pul = PUL([op_class(1, parse_forest(parameter))
               for op_class, parameter in insertions])
    assert canonical_form(pul, oracle) == \
        reduce_naive(pul, oracle, canonical=True)


@st.composite
def _permuted_text_insertions(draw):
    """Insertions on one node whose parameters are forests of text
    nodes (``[p, p]`` and ``[pp]`` serialize alike), and an order."""
    segmented = st.lists(st.sampled_from(["p", "pp", "q"]), min_size=1,
                         max_size=3)
    insertions = draw(st.lists(
        st.tuples(st.sampled_from(_INSERTIONS), segmented),
        min_size=2, max_size=5))
    return insertions, draw(st.permutations(range(len(insertions))))


@settings(max_examples=60, deadline=None)
@given(_permuted_text_insertions())
@example(([(InsertBefore, ["p", "p"]), (InsertBefore, ["pp"]),
           (InsertBefore, ["q"])], [1, 0, 2]))
def test_canonical_form_ignores_order_of_alike_parameters(case):
    """Definition 9 leaves parameters that serialize alike unordered;
    the canonical form must still not depend on which came first."""
    insertions, order = case
    oracle = DocumentOracle(parse_document("<r><t/></r>"))

    def pul(positions):
        return PUL([insertions[i][0](1, [Node.text(segment)
                                         for segment in insertions[i][1]])
                    for i in positions])

    assert canonical_form(pul(order), oracle) == \
        canonical_form(pul(range(len(insertions))), oracle)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_reduced_pul_still_applicable(data):
    document = data.draw(documents(max_depth=2, max_children=2))
    pul = data.draw(applicable_puls(document, max_ops=6))
    oracle = DocumentOracle(document)
    reduced = reduce_deterministic(pul, oracle)
    assert reduced.is_applicable(document)
