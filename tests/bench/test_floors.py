"""The two machine-independent performance floors: ratios of two arms
timed on the same machine in the same run, so they hold on any
hardware.

* ``index_speedup``: on a selective ``//name`` against a document of
  5k nodes or more, the tree walker takes at least 3x the time of the
  label-interval index (``engine="index"``: the index itself, not the
  answer memo in front of it).
* ``instrumentation_efficiency``: the same resident workload with the
  metrics registry on runs within 5% of ``metrics=False`` — the
  observability layer is cheap enough to leave on by default. The two
  arms alternate (on/off, then off/on) so slow drift on a shared host
  cancels, and each keeps its best of three sessions.
"""

import time

from repro.store import DocumentStore
from repro.workloads import generate_client_batches
from repro.workloads.xmark import generate_xmark
from repro.xdm.serializer import serialize

INDEX_SPEEDUP_FLOOR = 3.0
INSTRUMENTATION_EFFICIENCY_FLOOR = 0.95


def _catalog(rows):
    """``rows`` three-node ``<row>`` records (element, attribute,
    text) with 20 rare ``<needle>`` elements sprinkled through them."""
    needle_every = max(1, rows // 20)
    parts = ["<cat>"]
    for i in range(rows):
        parts.append('<row k="k{}">v{}</row>'.format(i % 50, i))
        if i % needle_every == 0:
            parts.append("<needle>n{}</needle>".format(i))
    parts.append("</cat>")
    return "".join(parts)


def _best_of(repeats, call):
    best = None
    for __ in range(repeats):
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_index_speedup_on_a_selective_name():
    with DocumentStore(workers=1, backend="serial") as store:
        store.open("q", _catalog(2000))
        assert len(store.document("q")) >= 5000
        walked = store.query("q", "//needle", engine="walk")
        indexed = store.query("q", "//needle", engine="index",
                              explain=True)
        assert indexed["plan"]["mode"] == "indexed"
        assert walked["nodes"] == indexed["nodes"]
        assert walked["count"] == 20

        def timed(engine):
            def call():
                for __ in range(25):
                    store.query("q", "//needle", engine=engine)
            return _best_of(3, call)

        walk_s, index_s = timed("walk"), timed("index")
    assert walk_s / index_s >= INDEX_SPEEDUP_FLOOR, (walk_s, index_s)


def test_instrumentation_efficiency():
    document = generate_xmark(scale=0.05, seed=7)
    text = serialize(document)
    batches, expected = generate_client_batches(
        document, clients=4, rounds=5, ops_per_round=60, seed=11)
    expected = serialize(expected)

    def session(metrics):
        with DocumentStore(workers=2, backend="serial",
                           metrics=metrics) as store:
            store.open("bench", text)
            start = time.perf_counter()
            for submissions in batches:
                for client, pul in submissions:
                    store.submit("bench", pul.copy(), client=client)
                store.flush("bench")
            elapsed = time.perf_counter() - start
            assert store.text("bench") == expected
        return elapsed

    best = {True: None, False: None}
    for repeat in range(3):
        for metrics in ((True, False) if repeat % 2 == 0
                        else (False, True)):
            elapsed = session(metrics)
            if best[metrics] is None or elapsed < best[metrics]:
                best[metrics] = elapsed
    efficiency = best[False] / best[True]
    assert efficiency >= INSTRUMENTATION_EFFICIENCY_FLOOR, best
