"""Ablation — optimized staged reduction engine vs the naive reference.

The optimized engine realizes the O(k log k) complexity of Section 3.1;
the naive engine searches operation pairs rule by rule (the executable
specification). The gap widens quickly with PUL size. Both engines
reason from the labels the PULs carry.
"""

import pytest

from repro.reduction import reduce_deterministic, reduce_naive
from repro.workloads import generate_reducible_pul

SIZES = (50, 200, 800)


@pytest.fixture(scope="module")
def puls(xmark_medium, xmark_medium_labeling):
    return {size: generate_reducible_pul(xmark_medium, size,
                                         hit_ratio=0.1, seed=31,
                                         labeling=xmark_medium_labeling)
            for size in SIZES}


@pytest.mark.parametrize("size", SIZES)
def test_optimized_engine(benchmark, puls, size):
    benchmark(reduce_deterministic, puls[size])


@pytest.mark.parametrize("size", [SIZES[0], SIZES[1]])
def test_naive_engine(benchmark, puls, size):
    benchmark.pedantic(
        reduce_naive, args=(puls[size],),
        kwargs={"deterministic": True}, rounds=2, iterations=1)
