"""Figure 6e — integration and conflict resolution.

The paper integrates 10 PULs of 4k-80k operations each, half of the
operations involved in conflicts averaging 5 operations, 1/5 of the
conflicts solved through cascades; integration remains cost effective.
Sizes scaled /10. Integration reasons from the union of the labels the
PULs carry, never from the document.
"""

import pytest

from repro.integration import integrate, reconcile
from repro.workloads import generate_conflicting_puls

SIZES = (400, 1600, 8000)
PUL_COUNT = 10


@pytest.fixture(scope="module")
def families(xmark_medium, xmark_medium_labeling):
    prepared = {}
    for size in SIZES:
        puls, __ = generate_conflicting_puls(
            xmark_medium, pul_count=PUL_COUNT, ops_per_pul=size,
            conflict_fraction=0.5, ops_per_conflict=5,
            cascade_fraction=0.2, seed=19,
            labeling=xmark_medium_labeling)
        prepared[size] = puls
    return prepared


@pytest.mark.parametrize("size", SIZES)
def test_integrate(benchmark, families, size):
    puls = families[size]
    result = benchmark(integrate, puls)
    assert result.has_conflicts


@pytest.mark.parametrize("size", SIZES)
def test_reconcile(benchmark, families, size):
    puls = families[size]

    def run():
        return reconcile(puls, policies={})

    result = benchmark(run)
    assert len(result) > 0
