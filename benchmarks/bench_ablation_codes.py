"""Ablation — CDBS vs CDQS label encoders.

Build time and total code length over the same document; the paper's cited
work ([15]) motivates CDQS with shorter codes at slightly higher per-digit
cost, which this ablation reproduces.
"""

import pytest

from repro.labeling import CDBSEncoder, CDQSEncoder, ContainmentLabeling

ENCODERS = {"CDBS": CDBSEncoder, "CDQS": CDQSEncoder}


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_build_labeling(benchmark, xmark_medium, name):
    encoder_class = ENCODERS[name]

    def run():
        return ContainmentLabeling(encoder=encoder_class()).build(
            xmark_medium)

    labeling = benchmark(run)
    total = sum(len(start) + len(end)
                for start, end in map(labeling.digits,
                                      labeling.as_mapping()))
    benchmark.extra_info["total_code_chars"] = total


@pytest.mark.parametrize("name", sorted(ENCODERS))
def test_incremental_insertions(benchmark, name):
    """A pathological all-at-the-same-gap insertion sequence."""
    encoder = ENCODERS[name]()

    def run():
        left, right = "1", "2" if encoder.base == 4 else "11"
        for __ in range(300):
            left = encoder.between(left, right)
        return left

    benchmark(run)
