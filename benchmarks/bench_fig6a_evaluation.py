"""Figure 6a — streaming vs in-memory PUL evaluation.

The paper evaluates a 1000-operation PUL over XMark documents from 1 MB to
256 MB and finds streaming ~3x faster, with the gap growing with document
size. Here the document sizes are scaled down; the benchmark ids encode the
scale so the trend is visible in the pytest-benchmark table.

Each arm also records ``peak_mb``: the peak traced memory of one
evaluation that serializes to ``os.devnull`` (the paper's disk mode), read
outside the timed call. Streaming holds the document's depth, not its
size, so its peak stays flat while the in-memory one grows.
"""

import os
import tracemalloc

import pytest

from repro.apply.events import events_to_file, events_to_xml, parse_events
from repro.apply.inmemory import apply_in_memory
from repro.apply.streaming import apply_streaming
from repro.workloads import generate_pul, generate_xmark
from repro.xdm.serializer import serialize

SCALES = (0.0625, 0.25, 1.0)
PUL_OPS = 1000


def _workload(scale):
    document = generate_xmark(scale=scale, seed=7)
    text = serialize(document)
    pul = generate_pul(document, PUL_OPS, seed=7)
    return document, text, pul


def _peak_mb(write):
    """Peak traced memory (MB) of ``write(sink)``, ``sink`` being
    ``os.devnull``, so only what the evaluator itself holds counts."""
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            write(sink)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return round(peak / 1e6, 3)


@pytest.mark.parametrize("scale", SCALES)
def test_streaming_evaluation(benchmark, scale):
    document, text, pul = _workload(scale)
    benchmark.extra_info["doc_mb"] = round(len(text) / 1e6, 3)

    def events():
        return apply_streaming(parse_events(text), pul,
                               fresh_start=len(document), check=False)

    benchmark(lambda: events_to_xml(events()))
    benchmark.extra_info["peak_mb"] = _peak_mb(
        lambda sink: events_to_file(events(), sink))


@pytest.mark.parametrize("scale", SCALES)
def test_inmemory_evaluation(benchmark, scale):
    document, text, pul = _workload(scale)
    benchmark.extra_info["doc_mb"] = round(len(text) / 1e6, 3)

    benchmark(apply_in_memory, text, pul)
    benchmark.extra_info["peak_mb"] = _peak_mb(
        lambda sink: sink.write(apply_in_memory(text, pul)))
