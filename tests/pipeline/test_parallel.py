"""ParallelReducer: backends, the warm pool, and failing shards."""

import sys
import threading
import time

import pytest

import repro.pipeline.parallel as parallel_mod
from repro.apply.inmemory import apply_in_memory
from repro.errors import ReproError
from repro.labeling import ContainmentLabeling
from repro.pipeline import ParallelReducer, merge_shards, shard_pul
from repro.pul.ops import Delete, InsertIntoAsLast, Rename
from repro.pul.pul import PUL
from repro.reduction import reduce_deterministic
from repro.store import DocumentStore
from repro.workloads import generate_pul
from repro.xdm import parse_document
from repro.xdm.node import Node
from repro.xdm.serializer import serialize

DOC = "<r>" + "".join(
    "<s{0}><c{0}>t</c{0}></s{0}>".format(i) for i in range(8)) + "</r>"


def _independent_ops(document):
    """Operations on eight independent subtrees (shards > 1 guaranteed)."""
    ops = []
    for index, subtree in enumerate(document.root.children):
        # target the inner children: unlike the subtree roots they are
        # not siblings of one another, so each subtree is one component
        child = subtree.children[0]
        ops.append(Rename(child.node_id, "x{}".format(index)))
        if index % 2:
            ops.append(Delete(child.children[0].node_id))
        else:
            ops.append(InsertIntoAsLast(child.node_id,
                                        [Node.element("n")]))
    return ops


@pytest.fixture
def pul():
    document = parse_document(DOC)
    pul = PUL(_independent_ops(document))
    pul.attach_labels(ContainmentLabeling().build(document))
    return pul


def test_rejects_unknown_backend():
    with pytest.raises(ReproError, match="unknown pipeline backend"):
        ParallelReducer(backend="gpu")


def test_rejects_the_retired_process_backend():
    with pytest.raises(ReproError, match="thread/serial"):
        ParallelReducer(backend="process")


def test_rejects_bad_worker_count():
    with pytest.raises(ReproError):
        ParallelReducer(workers=0)


@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_backends_match_sequential_reduction(backend, pul):
    shards = shard_pul(pul, 4)
    assert len(shards) == 4
    reducer = ParallelReducer(workers=4, backend=backend)
    try:
        reduced = reducer.reduce_shards(shards)
    finally:
        reducer.close()
    assert len(reduced) == len(shards)
    assert merge_shards(reduced) == reduce_deterministic(pul)


@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_reduce_shards_keeps_shard_order(backend, pul):
    shards = shard_pul(pul, 4)
    reducer = ParallelReducer(workers=4, backend=backend)
    try:
        reduced = reducer.reduce_shards(shards)
    finally:
        reducer.close()
    assert reduced == [reduce_deterministic(shard) for shard in shards]


@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_input_pul_is_not_mutated(backend, pul):
    ops = [op.describe() for op in pul]
    labels = dict(pul.labels)
    shards = shard_pul(pul, 4)
    shard_ops = [[op.describe() for op in shard] for shard in shards]
    reducer = ParallelReducer(workers=4, backend=backend)
    try:
        merge_shards(reducer.reduce_shards(shards))
    finally:
        reducer.close()
    assert [op.describe() for op in pul] == ops
    assert pul.labels == labels
    assert [[op.describe() for op in shard] for shard in shards] == \
        shard_ops


@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_empty_batch_reduces_to_empty(backend):
    reducer = ParallelReducer(workers=4, backend=backend)
    try:
        reduced = reducer.reduce_shards(shard_pul(PUL([]), 4))
    finally:
        reducer.close()
    assert [len(shard) for shard in reduced] == [0]
    assert len(merge_shards(reduced)) == 0


@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_matches_sequential_reference(backend, figure1, figure1_labeling):
    """On the Figure 1 document, the applied result of the sharded step
    is the sequential reduce + apply, byte for byte, at any shard
    count."""
    pul = generate_pul(figure1, 30, seed=7, labeling=figure1_labeling)
    text = serialize(figure1)
    expected = apply_in_memory(text, reduce_deterministic(pul))
    reducer = ParallelReducer(workers=4, backend=backend)
    try:
        for count in (1, 2, 4, 8):
            merged = merge_shards(reducer.reduce_shards(
                shard_pul(pul, count)))
            assert apply_in_memory(text, merged) == expected
    finally:
        reducer.close()


def test_one_thread_reduces_many_shards(pul):
    reducer = ParallelReducer(workers=1, backend="thread")
    try:
        reduced = reducer.reduce_shards(shard_pul(pul, 4))
    finally:
        reducer.close()
    assert len(reduced) == 4
    assert merge_shards(reduced) == reduce_deterministic(pul)


def test_close_is_idempotent_and_pool_rewarms(pul):
    reducer = ParallelReducer(workers=2, backend="thread")
    shards = shard_pul(pul, 2)
    first = reducer.reduce_shards(shards)
    warm = reducer._pool
    reducer.close()
    reducer.close()
    assert reducer._pool is None
    second = reducer.reduce_shards(shards)
    assert reducer._pool is not None and reducer._pool is not warm
    reducer.close()
    assert merge_shards(first) == merge_shards(second)


def test_concurrent_first_calls_share_one_pool(monkeypatch, pul):
    """Flushes of different documents share the store's reducer: the
    first calls racing each other must warm exactly one pool."""
    built = []
    real = parallel_mod.concurrent.futures.ThreadPoolExecutor

    def slow_pool(**kwargs):
        time.sleep(0.01)          # widen the check-then-create window
        built.append(real(**kwargs))
        return built[-1]

    monkeypatch.setattr(parallel_mod.concurrent.futures,
                        "ThreadPoolExecutor", slow_pool)
    reducer = ParallelReducer(workers=2, backend="thread")
    shards = shard_pul(pul, 2)
    expected = merge_shards(reducer.reduce_shards(shards))
    reducer.close()
    built.clear()
    start = threading.Barrier(8)
    results = []

    def flush():
        start.wait(timeout=10)
        results.append(merge_shards(reducer.reduce_shards(shards)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=flush) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        reducer.close()
    assert len(built) == 1
    assert results == [expected] * 8


def test_single_shard_short_circuits_to_serial(pul):
    reducer = ParallelReducer(workers=4, backend="thread")
    [reduced] = reducer.reduce_shards(shard_pul(pul, 1))
    assert reducer._pool is None
    assert reduced == reduce_deterministic(pul)


@pytest.mark.parametrize("error", (ReproError, RuntimeError))
@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_a_failing_shard_fails_the_call(monkeypatch, pul, backend, error):
    """No shard is retried or skipped: the first error propagates."""
    def failing(shard):
        if any(op.op_name == "delete" for op in shard):
            raise error("shard is semantically broken")
        return reduce_deterministic(shard)

    monkeypatch.setattr(parallel_mod, "reduce_deterministic", failing)
    reducer = ParallelReducer(workers=4, backend=backend)
    try:
        with pytest.raises(error, match="semantically broken"):
            reducer.reduce_shards(shard_pul(pul, 4))
    finally:
        reducer.close()


def _count_failing_reductions(monkeypatch, pul, error):
    """Reduce four shards on the thread pool with every reduction
    raising ``error``; returns (raised exception, shards attempted). A
    failed call cancels the shards not yet started, so each shard is
    attempted at most once."""
    calls = []

    def failing(shard):
        calls.append(shard)
        raise error("shard is semantically broken")

    monkeypatch.setattr(parallel_mod, "reduce_deterministic", failing)
    reducer = ParallelReducer(workers=4, backend="thread")
    try:
        with pytest.raises(error) as excinfo:
            reducer.reduce_shards(shard_pul(pul, 4))
    finally:
        reducer.close()
    return excinfo.value, calls


def test_domain_errors_propagate_not_retried(monkeypatch, pul):
    raised, calls = _count_failing_reductions(monkeypatch, pul, ReproError)
    assert "semantically broken" in str(raised)
    # no serial retry: no shard is reduced twice
    assert 1 <= len(calls) == len({id(shard) for shard in calls}) <= 4


def test_worker_failure_without_retry_raises(monkeypatch, pul):
    """A crash inside a pool worker reaches the caller as raised — not
    wrapped in a ReproError, not retried serially."""
    raised, calls = _count_failing_reductions(monkeypatch, pul,
                                              RuntimeError)
    assert not isinstance(raised, ReproError)
    assert 1 <= len(calls) == len({id(shard) for shard in calls}) <= 4


@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_a_failing_shard_fails_the_batch(monkeypatch, backend):
    """Through the store: the flush raises, the published version is the
    same object, the queue is restored, and the next flush succeeds."""
    with DocumentStore(workers=4, backend=backend) as store:
        store.open("d", DOC)
        store.submit("d", PUL(_independent_ops(store.document("d"))))
        published = store._entries["d"].published
        real = parallel_mod.reduce_deterministic

        def poisoned(shard):
            raise ReproError("poisoned shard")

        monkeypatch.setattr(parallel_mod, "reduce_deterministic", poisoned)
        with pytest.raises(ReproError, match="poisoned"):
            store.flush("d")
        assert store._entries["d"].published is published
        assert len(store._entries["d"].pending) == 1
        monkeypatch.setattr(parallel_mod, "reduce_deterministic", real)
        result = store.flush("d")
        assert result.version == 1
        assert result.shard_sizes == [4, 4, 4, 4]
