"""The canonical-form check against the exact obtainable-set oracle.

The canonical form is the *deterministic* reduction ``∆^H``: it resolves
every freedom the PUL leaves open (where an ``ins↓`` lands, in which
order same-target insertions line up). Equal canonical forms therefore
guarantee a common outcome both PULs can be substituted by — not equal
obtainable sets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.pul.equivalence import (
    equivalent,
    equivalent_by_canonical,
    obtainable_strings,
    substitutable,
)
from repro.pul.ops import (
    InsertAfter,
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    Rename,
)
from repro.pul.pul import PUL
from repro.pul.semantics import ObtainableLimitExceeded
from repro.reasoning import DocumentOracle
from repro.reduction import canonical_form
from repro.xdm.parser import parse_document, parse_forest

from tests.strategies import applicable_puls, documents


class TestCanonicalEquivalence:
    def test_shuffled_pul_is_canonically_equivalent(self, small_doc):
        oracle = DocumentOracle(small_doc)
        ops = [Rename(2, "x"),
               InsertAfter(4, parse_forest("<p/>")),
               InsertIntoAsLast(0, parse_forest("<q/>"))]
        assert equivalent_by_canonical(PUL(ops), PUL(ops[::-1]), oracle)

    def test_collapsible_variants_detected(self, small_doc):
        oracle = DocumentOracle(small_doc)
        split = PUL([InsertAfter(4, parse_forest("<p/>")),
                     InsertAfter(4, parse_forest("<q/>"))])
        merged = PUL([InsertAfter(4, parse_forest("<p/><q/>"))])
        assert equivalent_by_canonical(split, merged, oracle)

    def test_different_effects_not_equal(self, small_doc):
        oracle = DocumentOracle(small_doc)
        assert not equivalent_by_canonical(
            PUL([Rename(2, "x")]), PUL([Rename(2, "y")]), oracle)

    def test_incomplete_for_cross_shape_equivalence(self, figure1):
        """Example 4's equivalent pair uses different primitives; the
        syntactic check conservatively says False."""
        from repro.pul.ops import ReplaceChildren, ReplaceValue
        oracle = DocumentOracle(figure1)
        pul1 = PUL([ReplaceValue(20, "R")])
        pul2 = PUL([ReplaceChildren(19, "R")])
        assert equivalent(pul1, pul2, figure1)
        assert not equivalent_by_canonical(pul1, pul2, oracle)


WITNESS_DOC = '<a k0="x" k1="x">x<a k0="x"/></a>'   # ids 0..5, inner a = 4


def _ins_into_witness(kind):
    return PUL([InsertIntoAsFirst(4, parse_forest("<a>v</a>p")),
                kind(0, parse_forest("q")),
                InsertIntoAsLast(0, parse_forest("q")),
                Rename(0, "rn2")])


@pytest.mark.parametrize("wider, narrower", [
    # the example hypothesis found (PR 13's rare tier-1 flake): the
    # canonical form sends ins↓ to the end, where P2 put it outright
    (_ins_into_witness(InsertInto), _ins_into_witness(InsertIntoAsLast)),
    # no ins↓ needed: two ins→ on one target may land in either order
    (PUL([InsertAfter(4, parse_forest("<p/>")),
          InsertAfter(4, parse_forest("<q/>"))]),
     PUL([InsertAfter(4, parse_forest("<p/><q/>"))])),
], ids=["ins-into", "same-target-order"])
def test_equal_canonical_forms_with_unequal_obtainable_sets(wider,
                                                            narrower):
    document = parse_document(WITNESS_DOC)
    oracle = DocumentOracle(document)
    assert equivalent_by_canonical(wider, narrower, oracle)
    assert obtainable_strings(document, narrower) \
        < obtainable_strings(document, wider)
    assert not equivalent(wider, narrower, document)
    canonical = canonical_form(wider, oracle)
    assert substitutable(canonical, wider, document)
    assert substitutable(canonical, narrower, document)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_soundness_against_exact_oracle(data):
    """The canonical PUL is substitutable for its input, so
    canonically-equal PULs share an outcome — and are equivalent
    whenever each of them has only one."""
    document = data.draw(documents(max_depth=2, max_children=2))
    oracle = DocumentOracle(document)
    pul1 = data.draw(applicable_puls(document, max_ops=4))
    pul2 = data.draw(applicable_puls(document, max_ops=4))
    try:
        outcomes1 = obtainable_strings(document, pul1, limit=3000)
        outcomes2 = obtainable_strings(document, pul2, limit=3000)
    except ObtainableLimitExceeded:
        return
    for pul, outcomes in ((pul1, outcomes1), (pul2, outcomes2)):
        canonical = obtainable_strings(
            document, canonical_form(pul, oracle), limit=3000)
        assert len(canonical) == 1 and canonical <= outcomes
    if equivalent_by_canonical(pul1, pul2, oracle):
        assert outcomes1 & outcomes2
        if len(outcomes1) == len(outcomes2) == 1:
            assert outcomes1 == outcomes2
