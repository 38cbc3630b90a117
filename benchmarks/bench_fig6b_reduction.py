"""Figure 6b — reduction time vs PUL size.

The paper reduces PULs of 5k-100k operations with roughly one successful
rule application every 10 operations, measuring deserialize + reduce +
reserialize, and observes the O(k log k) trend with serialization
dominating. Sizes scaled /10. Reduction reasons from the labels the PULs
carry (on the wire too), never from the document.
"""

import pytest

from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.reduction import reduce_deterministic
from repro.workloads import generate_reducible_pul

SIZES = (500, 2000, 8000)


@pytest.fixture(scope="module")
def workloads(xmark_medium, xmark_medium_labeling):
    prepared = {}
    for size in SIZES:
        pul = generate_reducible_pul(xmark_medium, size, hit_ratio=0.1,
                                     seed=11,
                                     labeling=xmark_medium_labeling)
        prepared[size] = (pul, pul_to_xml(pul))
    return prepared


@pytest.mark.parametrize("size", SIZES)
def test_reduce_only(benchmark, workloads, size):
    pul, __ = workloads[size]
    result = benchmark(reduce_deterministic, pul)
    assert len(result) <= len(pul)


@pytest.mark.parametrize("size", SIZES)
def test_deserialize_reduce_reserialize(benchmark, workloads, size):
    __, wire = workloads[size]

    def run():
        return pul_to_xml(reduce_deterministic(pul_from_xml(wire)))

    benchmark(run)
