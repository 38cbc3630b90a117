"""Failure paths of :class:`ParallelReducer`.

The contract:

* a failed shard is recomputed in-process and recorded as telemetry —
  the batch still converges to the sequential result;
* ``retry_serial=False`` propagates instead of recovering;
* a broken process pool (on ``submit`` or on ``result``) is discarded so
  the next batch gets a fresh pool;
* domain errors (``ReproError``) are *not* swallowed by recovery — a
  poisoned shard fails the batch loudly on every backend.
"""

from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.pipeline.parallel as parallel_mod
from repro.errors import ReproError
from repro.labeling import ContainmentLabeling
from repro.pipeline.merge import merge_shards
from repro.pipeline.parallel import ParallelReducer
from repro.pipeline.shard import shard_pul
from repro.pul.ops import InsertIntoAsLast, Rename, ReplaceValue
from repro.pul.pul import PUL
from repro.pul.serialize import pul_to_xml
from repro.reduction import reduce_deterministic
from repro.xdm import parse_document
from repro.xdm.node import Node

DOC = ("<bib><paper><title>T1</title><authors><author>A</author>"
       "</authors></paper><paper><title>T2</title></paper>"
       "<note>n</note></bib>")


@pytest.fixture
def pul():
    """Operations on four structurally independent targets (the two
    titles, the author text, the note), labeled against ``DOC``."""
    document = parse_document(DOC)
    labeling = ContainmentLabeling().build(document)
    elements = {}
    texts = {}
    for node in document.nodes():
        if node.is_element:
            elements.setdefault(node.name, []).append(node)
        elif node.is_text:
            texts.setdefault(node.value, node)
    title1, title2 = elements["title"]
    pul = PUL([
        Rename(title1.node_id, "headline"),
        InsertIntoAsLast(title2.node_id, [Node.text("!")]),
        ReplaceValue(texts["A"].node_id, "Anna"),
        ReplaceValue(texts["n"].node_id, "updated"),
    ], origin="alice")
    pul.attach_labels(labeling)
    return pul


def _flaky(real, crash_times):
    """A worker that raises for the first ``crash_times`` calls."""
    crashes = []

    def worker(shard, deterministic):
        if len(crashes) < crash_times:
            crashes.append(True)
            raise RuntimeError("worker died mid-batch")
        return real(shard, deterministic)

    worker.crashes = crashes
    return worker


class _BrokenFuture:
    def result(self):
        raise BrokenProcessPool("worker process died")


class _PoolBrokenOnResult:
    """Accepts submissions, then reports the pool broken per-future."""

    def __init__(self):
        self.submissions = 0
        self.shutdowns = 0

    def submit(self, fn, *args):
        self.submissions += 1
        return _BrokenFuture()

    def shutdown(self, *args, **kwargs):
        self.shutdowns += 1


class _PoolBrokenOnSubmit(_PoolBrokenOnResult):
    def submit(self, fn, *args):
        self.submissions += 1
        raise BrokenProcessPool("pool already dead")


class TestWorkerDeathMidBatch:
    def test_failed_shards_recovered_and_recorded(self, monkeypatch, pul):
        flaky = _flaky(parallel_mod._reduce_shard, crash_times=2)
        monkeypatch.setattr(parallel_mod, "_reduce_shard", flaky)
        reducer = ParallelReducer(workers=4, backend="thread")
        with reducer:
            outcome = reducer.reduce(pul)
        assert len(flaky.crashes) == 2
        assert len(outcome.failures) == 2
        assert sorted(f.shard_index for f in outcome.failures) == \
            sorted(set(f.shard_index for f in outcome.failures))
        assert all(isinstance(f.error, RuntimeError)
                   for f in outcome.failures)
        assert "shard=" in repr(outcome.failures[0])
        # the batch still equals the sequential reduction
        assert merge_shards(outcome.reduced) == reduce_deterministic(pul)

    def test_retry_serial_false_propagates(self, monkeypatch, pul):
        flaky = _flaky(parallel_mod._reduce_shard, crash_times=1)
        monkeypatch.setattr(parallel_mod, "_reduce_shard", flaky)
        reducer = ParallelReducer(workers=4, backend="thread",
                                  retry_serial=False)
        with reducer:
            with pytest.raises(ReproError, match="workers failed"):
                reducer.reduce(pul)

    def test_domain_errors_never_swallowed(self, monkeypatch, pul):
        def poisoned(shard, deterministic):
            raise ReproError("poisoned shard")

        monkeypatch.setattr(parallel_mod, "_reduce_shard", poisoned)
        reducer = ParallelReducer(workers=4, backend="thread")
        with reducer:
            with pytest.raises(ReproError, match="poisoned"):
                reducer.reduce(pul)

    def test_wire_mode_failures_recovered(self, monkeypatch, pul):
        flaky = _flaky(parallel_mod._reduce_shard_wire, crash_times=1)
        monkeypatch.setattr(parallel_mod, "_reduce_shard_wire", flaky)
        payloads = [pul_to_xml(s) for s in shard_pul(pul, 4)]
        reducer = ParallelReducer(workers=4, backend="thread")
        with reducer:
            reduced, failures = reducer.reduce_wire(payloads)
        assert len(failures) == 1
        assert len(reduced) == len(payloads)
        assert all(isinstance(p, str) for p in reduced)


class TestBrokenPool:
    def test_pool_broken_on_result_recovers_and_is_discarded(self, pul):
        reducer = ParallelReducer(workers=4, backend="process")
        fake = _PoolBrokenOnResult()
        reducer._pool = fake  # a pool whose workers have already died
        outcome = reducer.reduce(pul)
        assert outcome.failures
        assert all(isinstance(f.error, BrokenProcessPool)
                   for f in outcome.failures)
        # every shard was recomputed in-process
        assert merge_shards(outcome.reduced) == reduce_deterministic(pul)
        # the broken pool was shut down and dropped
        assert fake.shutdowns >= 1
        assert reducer._pool is None
        reducer.close()

    def test_pool_broken_on_submit_recovers(self, pul):
        reducer = ParallelReducer(workers=4, backend="process")
        fake = _PoolBrokenOnSubmit()
        reducer._pool = fake
        outcome = reducer.reduce(pul)
        assert len(outcome.failures) == 1
        assert outcome.failures[0].shard_index is None
        assert merge_shards(outcome.reduced) == reduce_deterministic(pul)
        reducer.close()

    def test_fresh_pool_after_breakage(self, pul):
        """After a broken-pool incident the next reduce builds a real
        pool again (here: the thread pool class, to stay in-process)."""
        reducer = ParallelReducer(workers=2, backend="thread")
        with reducer:
            first_pool = reducer._get_pool()
            reducer.close()
            assert reducer._pool is None
            outcome = reducer.reduce(pul)
            assert reducer._pool is not None
            assert reducer._pool is not first_pool
            assert outcome.failures == []
