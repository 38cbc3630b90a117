"""Shared fixtures for the figure benchmarks.

Workloads are scaled down from the paper's testbed (16 GB / 256 MB
documents) to container-friendly sizes; every sweep keeps the paper's
progression shape. Session-scoped fixtures build each workload once.
The reasoning figures (6b, 6e, the reduction ablation) reason from the
labels their PULs carry, as the paper's executor does: their generators
take ``labeling=xmark_medium_labeling`` and the reasoning calls pass no
``structure=``.
"""

import pytest

from repro.labeling import ContainmentLabeling
from repro.workloads import generate_xmark
from repro.xdm.serializer import serialize


@pytest.fixture(scope="session")
def xmark_small():
    """~30 KB document."""
    return generate_xmark(scale=0.025, seed=7)


@pytest.fixture(scope="session")
def xmark_medium():
    """~300 KB document."""
    return generate_xmark(scale=0.25, seed=7)


@pytest.fixture(scope="session")
def xmark_medium_text(xmark_medium):
    return serialize(xmark_medium)


@pytest.fixture(scope="session")
def xmark_medium_labeling(xmark_medium):
    return ContainmentLabeling().build(xmark_medium)
