"""One commit path: residency changes only behind a durable record,
the replication stream is exactly what the commit train made durable,
and a flush logs its batch as its one reduction left it.

Two contracts under injected ``fsync`` faults:

* a call that changes which documents are resident (``open``,
  ``bulk_load``, ``close_document``) and whose log record does not
  reach disk raises and leaves no trace — the resident set, the log and
  a restarted store all stand where they stood before the call;
* ``ReplicationSource.read`` yields the records of the log, in log
  order, from the source's anchor on: a record whose fsync failed is on
  neither, a record behind an acknowledged call is already on both.
  (What the deleted ``WalTailReader`` suite proved by re-reading
  segment files — a torn or unsynced record never surfaces — holds here
  because the feed is handed the bytes of each successful sync and
  nothing else.)

And one without faults: a flush runs ``reduce_deterministic`` once over
the whole coalesced batch — for every workload generator's batches, for
flushes of several documents at once, and once only when it raises,
which fails the batch before anything is logged — and ends where the
sequential reduce + apply ends. The log holds that reduction as it
stands — a strict ``repC`` strict, the operations in the reduction's
order — so a restart, a replica and ``replay_oracle`` stand where the
leader stands.
"""

import errno
import os
import random
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.store.store as store_mod
from repro.apply.inmemory import apply_in_memory
from repro.cluster import ReplicaStore
from repro.cluster.tokens import decode_token, encode_token
from repro.errors import (
    DurabilityError,
    NotApplicableError,
    ReproError,
    WalPoisonedError,
)
from repro.labeling import ContainmentLabeling
from repro.pul.ops import Delete, InsertIntoAsLast, Rename, ReplaceChildren
from repro.pul.pul import PUL
from repro.pul.serialize import pul_from_xml
from repro.reduction import reduce_deterministic
from repro.store import DocumentStore, StatelessBaseline
from repro.store.durability import (
    DurabilityManager,
    DurabilityPolicy,
    load_durable_state,
    replay_oracle,
    scan_wal,
)
from repro.store.durability.recovery import decode_payload
from repro.workloads import (
    generate_client_batches,
    generate_pul,
    generate_sequential_puls,
    generate_xmark,
)
from repro.xdm.node import Node
from repro.xdm.serializer import serialize

from tests.strategies import applicable_puls, documents

DOC = "<doc><items/></doc>"


def _store(wal_dir):
    return DocumentStore(durability="log", wal_dir=str(wal_dir))


def _is_segment(fd):
    """Whether ``fd`` is a WAL segment (snapshot files and directory
    entries are fsynced too, outside the commit path)."""
    try:
        return os.readlink("/proc/self/fd/{}".format(fd)).endswith(".log")
    except OSError:
        return True


def _inject(monkeypatch, should_fail):
    """Make ``os.fsync`` of a WAL segment raise ``EIO`` whenever
    ``should_fail()`` says so. The fsync right after a failed one — the
    rollback's own — always succeeds: two in a row poison the writer,
    which is a different contract (``TestPoisonedWriter``)."""
    real_fsync = os.fsync
    state = {"failed_last": False}
    lock = threading.Lock()

    def fsync(fd):
        if _is_segment(fd):
            with lock:
                fail = not state["failed_last"] and should_fail()
                state["failed_last"] = fail
            if fail:
                raise OSError(errno.EIO, "injected fsync failure")
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)


def _fail_once(monkeypatch):
    pending = [True]
    _inject(monkeypatch, lambda: pending.pop() if pending else False)


def _insert(store, doc_id, name="x"):
    store.submit_xquery(
        doc_id, "insert node <{}/> as last into /doc/items".format(name),
        client="c")
    return store.flush(doc_id)


def _resident(store):
    return {doc_id: (store.text(doc_id), store.version(doc_id))
            for doc_id in store.doc_ids()}


RESIDENCY_CALLS = {
    "open": lambda store: store.open("b", DOC),
    "bulk_load": lambda store: store.bulk_load(
        [{"doc_id": "b", "xml": DOC}, {"doc_id": "c", "xml": DOC}]),
    "close_document": lambda store: store.close_document("a"),
}


class TestResidencyFollowsTheLog:
    @pytest.mark.parametrize("call", sorted(RESIDENCY_CALLS))
    def test_a_failed_fsync_leaves_no_trace(self, tmp_path, monkeypatch,
                                            call):
        wal_dir = tmp_path / "wal"
        change = RESIDENCY_CALLS[call]
        with _store(wal_dir) as store:
            store.open("a", DOC)
            _insert(store, "a")
            before = store.doc_ids()
            _fail_once(monkeypatch)
            with pytest.raises(DurabilityError):
                change(store)
            assert store.doc_ids() == before
            # the store is not wedged: writes are acknowledged, ...
            assert _insert(store, "a").version == 2
            assert replay_oracle(str(wal_dir)) == _resident(store)
            # ... and the same call, retried, takes effect
            change(store)
            assert store.doc_ids() != before
            for doc_id in store.doc_ids():
                _insert(store, doc_id, name="y")
            expected = _resident(store)
        assert replay_oracle(str(wal_dir)) == expected
        with _store(wal_dir) as reopened:
            assert _resident(reopened) == expected


class _FillingDisk:
    """A segment on a disk that fills up: writes land until ``room``
    bytes are used (the one straddling the limit lands partly, like a
    real short write), then raise ``ENOSPC``."""

    def __init__(self, inner, room):
        self.inner = inner
        self.room = room

    def write(self, data):
        if self.room <= 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        written = self.inner.write(data[:self.room])
        self.room -= written
        return written

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestRefusedChunk:
    def test_a_write_failing_midway_leaves_none_of_the_chunk(
            self, tmp_path):
        """The disk fills up in the middle of a bulk-load chunk's
        records: the call is refused, and none of its records may
        reach the log, the stream or a restart — not even the ones
        written before the write failed."""
        chunk = [{"doc_id": "x{}".format(i), "xml": DOC} for i in (1, 2, 3)]
        with _store(tmp_path / "probe") as probe:
            start = probe._durability._writer.size
            probe.bulk_load(chunk)
            record = (probe._durability._writer.size - start) // 3
        wal_dir = tmp_path / "wal"
        with _store(wal_dir) as store:
            store.open("base", DOC)
            source = store.enable_replication()
            writer = store._durability._writer
            writer._file = _FillingDisk(writer._file, record + record // 2)
            with pytest.raises(DurabilityError):
                store.bulk_load(chunk)
            writer._file = writer._file.inner
            assert store.doc_ids() == ["base"]
            # one more acknowledged record: its train must carry nothing
            # of the refused chunk
            store.close_document("base")
            assert [item["kind"] for item in _stream(source)] == ["close"]
            assert replay_oracle(str(wal_dir)) == {}
        with _store(wal_dir) as restarted:
            assert restarted.doc_ids() == []
            restarted.bulk_load(chunk)
            assert restarted.doc_ids() == ["x1", "x2", "x3"]
            expected = _resident(restarted)
        assert replay_oracle(str(wal_dir)) == expected


class _Worker(threading.Thread):
    """One thread of the schedule. It owns the documents it opens, so
    its own bookkeeping says what each call must have left behind."""

    def __init__(self, index, store, source, seed, steps):
        super().__init__(name="worker-{}".format(index))
        self.index = index
        self.store = store
        self.source = source
        self.random = random.Random(seed)
        self.steps = steps
        self.minted = 0
        self.open_docs = []
        self.keep_open = []     # a close failed: never closed again
        self.acknowledged = []  # (kind, doc id, marker) behind a return
        self.refused = []       # the same, for calls that raised
        self.error = None

    def _mint(self):
        self.minted += 1
        return "w{}d{}".format(self.index, self.minted)

    def _attempt(self, kind, doc_ids, call, marker=None):
        try:
            call()
        except DurabilityError:
            self.refused.extend((kind, d, marker) for d in doc_ids)
            return False
        self.acknowledged.extend((kind, d, marker) for d in doc_ids)
        # acknowledged means readable now: no sleep, no long-poll
        stream = _stream(self.source)
        for doc_id in doc_ids:
            assert _find(stream, kind, doc_id, marker), (kind, doc_id)
        return True

    def _step(self, step):
        store = self.store
        choice = self.random.random()
        if choice < 0.15 or not self.open_docs:
            doc_id = self._mint()
            if self._attempt("open", [doc_id],
                             lambda: store.open(doc_id, DOC)):
                self.open_docs.append(doc_id)
        elif choice < 0.25:
            doc_ids = [self._mint(), self._mint()]
            if self._attempt("open", doc_ids, lambda: store.bulk_load(
                    [(doc_id, DOC) for doc_id in doc_ids])):
                self.open_docs.extend(doc_ids)
        elif choice < 0.35:
            doc_id = self.open_docs.pop(
                self.random.randrange(len(self.open_docs)))
            if not self._attempt("close", [doc_id],
                                 lambda: store.close_document(doc_id)):
                self.keep_open.append(doc_id)
        elif choice < 0.42:
            try:
                store.snapshot()
            except DurabilityError:
                pass    # the seal's fsync failed: nothing rotated
        else:
            doc_id = self.random.choice(self.open_docs)
            marker = "m{}s{}".format(self.index, step)
            if not self._attempt("batch", [doc_id],
                                 lambda: _insert(store, doc_id, marker),
                                 marker=marker):
                # the failed flush restored its queue; withdraw it, or
                # the next flush logs this marker after all
                store.discard_pending(doc_id)

    def run(self):
        try:
            for step in range(self.steps):
                self._step(step)
        except BaseException as error:   # noqa: BLE001 - reported below
            self.error = error


def _stream(source):
    page = source.read(from_token=encode_token(source.stream_id, 0),
                       decode=False, max_events=1 << 20)
    next_seq = decode_token(page["token"])[1]
    assert [item["seq"] for item in page["events"]] == \
        list(range(next_seq))
    assert next_seq == page["end_seq"]
    return [item["record"] for item in page["events"]]


def _find(records, kind, doc_id, marker):
    for record in records:
        if record["kind"] != kind:
            continue
        if kind == "open":
            if record["doc"]["doc_id"] == doc_id:
                return True
        elif record["doc_id"] == doc_id and (
                marker is None or "<{}/>".format(marker) in record["pul"]):
            return True
    return False


def _log(wal_dir):
    """Every record of every segment, oldest first (the test keeps
    compacted segments on disk)."""
    records = []
    for name in sorted(os.listdir(wal_dir)):
        if name.endswith(".log"):
            payloads, __, clean = scan_wal(os.path.join(wal_dir, name))
            assert clean, name
            records.extend(decode_payload(p) for p in payloads)
    return records


class TestStreamEqualsLog:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_under_concurrent_residency_changes_and_fsync_faults(
            self, tmp_path, monkeypatch, seed):
        wal_dir = str(tmp_path / "wal")
        # compaction keeps its segments, so the whole log can be read
        # back at the end (a snapshot's .tmp file is renamed, never
        # unlinked)
        monkeypatch.setattr(os, "unlink", lambda path: None)
        faults = random.Random(seed)
        with _store(wal_dir) as store:
            # history before the source is export territory, not stream
            store.open("early", DOC)
            _insert(store, "early")
            anchor = len(_log(wal_dir))
            assert anchor == 2
            source = store.enable_replication()
            assert source.next_seq == 0
            _inject(monkeypatch, lambda: faults.random() < 0.12)
            workers = [_Worker(index, store, source, seed * 100 + index,
                               steps=30) for index in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)
            try:
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(worker.is_alive() for worker in workers)
            for worker in workers:
                if worker.error is not None:
                    raise worker.error
            monkeypatch.undo()
            stream = _stream(source)
            resident = _resident(store)
            refused = [r for w in workers for r in w.refused]
            acknowledged = [a for w in workers for a in w.acknowledged]
            assert refused and acknowledged     # the seed drew both
            assert sorted(resident) == sorted(
                ["early"] + [d for w in workers
                             for d in w.open_docs + w.keep_open])
        log = _log(wal_dir)
        assert stream == log[anchor:]
        state = load_durable_state(wal_dir, repair=False)
        assert state.clean
        if state.records:
            assert stream[-len(state.records):] == state.records
        for kind, doc_id, marker in acknowledged:
            assert _find(log, kind, doc_id, marker), (kind, doc_id)
        for kind, doc_id, marker in refused:
            assert not _find(log, kind, doc_id, marker), (kind, doc_id)
        assert replay_oracle(wal_dir) == resident
        with _store(wal_dir) as reopened:
            assert _resident(reopened) == resident


class TestPoisonedWriter:
    def test_a_writer_that_refuses_to_sync_fails_its_waiters(
            self, tmp_path):
        """A torn append whose rollback also fails poisons the writer;
        an earlier record that was still waiting for its fsync can then
        never become durable, and its waiter must be told so — not lead
        train after train on a writer whose ``sync`` does nothing."""

        class TornFile:
            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def truncate(self, size):
                raise OSError(errno.EIO, "injected truncate failure")

            def __getattr__(self, name):
                return getattr(self.inner, name)

        manager = DurabilityManager(str(tmp_path / "wal"),
                                    DurabilityPolicy("log"),
                                    group_window=0.3)
        manager.start()
        outcome = []

        def first():
            try:
                manager.log_close("a")
            except DurabilityError as error:
                outcome.append(error)
            else:
                outcome.append(None)

        waiter = threading.Thread(target=first, daemon=True)
        waiter.start()
        # the first record is buffered and its leader is holding the
        # train open for riders; the rider tears, unrepairably
        deadline = time.monotonic() + 10
        while manager._writer.size == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert manager._writer.size > 0
        manager._writer._file = TornFile(manager._writer._file)
        with pytest.raises(WalPoisonedError):
            manager.log_close("b")
        waiter.join(30)
        assert not waiter.is_alive()
        assert isinstance(outcome[0], WalPoisonedError)
        manager._writer._file = manager._writer._file.inner
        manager.close()


def _state(store, doc_id="d"):
    """Text, label digits of every node, and the index of the published
    version: what every host of the log must agree on."""
    version = store._entries[doc_id].published
    labeling = version.labeling
    digits = {node.node_id: labeling.digits(node.node_id)
              for node in version.document.nodes()}
    return serialize(version.document), digits, version.index


def _counted(calls):
    """``reduce_deterministic``, noting the size of each batch it is
    called on."""
    def counted(pul):
        calls.append(len(pul))
        return reduce_deterministic(pul)
    return counted


def _independent_ops(document):
    """Two operations on each of the eight independent subtrees of
    :attr:`TestOneReduction.DOC`."""
    ops = []
    for index, subtree in enumerate(document.root.children):
        child = subtree.children[0]
        ops.append(Rename(child.node_id, "x{}".format(index)))
        if index % 2:
            ops.append(Delete(child.children[0].node_id))
        else:
            ops.append(InsertIntoAsLast(child.node_id,
                                        [Node.element("n")]))
    return ops


FAMILIES = ("clients", "sequential", "lone")


def _chain(family, seed):
    """The document and batches of submissions one workload generator
    makes for it: concurrent clients' rounds, one producer's sequential
    chain, or a lone large record-local PUL."""
    document = generate_xmark(scale=0.02, seed=seed)
    if family == "clients":
        batches, __ = generate_client_batches(
            document, clients=3, rounds=3, ops_per_round=10, seed=seed)
    elif family == "sequential":
        puls, __ = generate_sequential_puls(document, 3, 8, seed=seed)
        batches = [[("p", pul) for pul in puls]]
    else:
        labeling = ContainmentLabeling().build(document)
        pul = generate_pul(document, 60, seed=seed, labeling=labeling,
                           min_depth=3)
        batches = [[("l", pul)]]
    return serialize(document), batches


class TestOneReduction:
    DOC = "<r>" + "".join(
        "<s{0}><c{0}>t</c{0}></s{0}>".format(i) for i in range(8)) + "</r>"

    def test_a_flush_reduces_its_whole_batch_once(self, monkeypatch):
        """Three clients edit eight independent subtrees, two operations
        each: the flush coalesces them into one batch and runs
        ``reduce_deterministic`` on it once, and ends where the
        stateless baseline ends."""
        calls = []

        def counted(pul):
            calls.append(len(pul))
            return reduce_deterministic(pul)

        monkeypatch.setattr(store_mod, "reduce_deterministic", counted)
        baseline = StatelessBaseline()
        with DocumentStore() as store:
            for executor in (store, baseline):
                executor.open("d", self.DOC)
            for index, subtree in enumerate(
                    store.document("d").root.children):
                child = subtree.children[0]
                for executor in (store, baseline):
                    # each executor adopts its own parameter trees
                    second = (Delete(child.children[0].node_id)
                              if index % 2 else InsertIntoAsLast(
                                  child.node_id, [Node.element("n")]))
                    executor.submit(
                        "d", PUL([Rename(child.node_id,
                                         "x{}".format(index)), second]),
                        client="c{}".format(index % 3))
            result = store.flush("d")
            baseline.flush("d")
            assert (result.clients, result.submitted_ops) == (3, 16)
            assert calls == [16]
            assert store.text("d") == baseline.text("d")

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_every_generator_s_batches_are_reduced_once(
            self, monkeypatch, family, seed):
        """Batch by batch, the store calls ``reduce_deterministic`` once
        over everything the batch submitted and stands where the
        stateless baseline stands."""
        calls = []
        monkeypatch.setattr(store_mod, "reduce_deterministic",
                            _counted(calls))
        # each executor gets its own draw: a copy would drop the ids a
        # sequential chain's later PULs target
        text, batches = _chain(family, seed)
        __, twins = _chain(family, seed)
        baseline = StatelessBaseline()
        submitted = []
        with DocumentStore() as store:
            for executor in (store, baseline):
                executor.open("d", text)
            for submissions, twin in zip(batches, twins):
                for executor, drawn in ((store, submissions),
                                        (baseline, twin)):
                    for client, pul in drawn:
                        executor.submit("d", pul, client=client)
                submitted.append(store.flush("d").submitted_ops)
                baseline.flush("d")
                assert store.text("d") == baseline.text("d")
        assert calls == submitted

    def test_an_empty_submission_is_one_empty_reduction(self, monkeypatch):
        calls = []
        monkeypatch.setattr(store_mod, "reduce_deterministic",
                            _counted(calls))
        with DocumentStore() as store:
            store.open("d", self.DOC)
            store.submit("d", PUL([]))
            assert store.flush("d").reduced_ops == 0
            assert store.text("d") == self.DOC
        assert calls == [0]

    @pytest.mark.parametrize("seed", (7, 11, 19))
    def test_a_flush_ends_where_reduce_then_apply_ends(
            self, figure1, figure1_labeling, seed):
        """On the Figure 1 document the store's incremental flush is the
        sequential reduce + in-memory apply, byte for byte."""
        pul = generate_pul(figure1, 30, seed=seed,
                           labeling=figure1_labeling)
        text = serialize(figure1)
        expected = apply_in_memory(text, reduce_deterministic(pul))
        with DocumentStore() as store:
            store.open("d", text)
            store.submit("d", pul)
            store.flush("d")
            assert store.text("d") == expected

    @pytest.mark.parametrize("durability", (None, "log"))
    @pytest.mark.parametrize("error", (ReproError, RuntimeError))
    def test_a_failing_reduction_fails_the_batch(
            self, tmp_path, monkeypatch, error, durability):
        """The error reaches the caller as raised, after one attempt:
        the published version is the same object, the queue is given
        back, nothing is logged, and the next flush succeeds."""
        calls = []

        def failing(pul):
            calls.append(len(pul))
            raise error("poisoned reduction")

        wal_dir = str(tmp_path / "wal")
        options = {} if durability is None else {
            "durability": durability, "wal_dir": wal_dir}
        with DocumentStore(**options) as store:
            store.open("d", self.DOC)
            store.submit("d", PUL(_independent_ops(store.document("d"))))
            published = store._entries["d"].published
            monkeypatch.setattr(store_mod, "reduce_deterministic", failing)
            with pytest.raises(error, match="poisoned") as raised:
                store.flush("d")
            assert type(raised.value) is error
            assert calls == [16]
            assert store._entries["d"].published is published
            assert len(store._entries["d"].pending) == 1
            monkeypatch.setattr(store_mod, "reduce_deterministic",
                                reduce_deterministic)
            assert store.flush("d").version == 1
            leader = _state(store)
        if durability is not None:
            with DocumentStore(durability=durability,
                               wal_dir=wal_dir) as restarted:
                assert _state(restarted) == leader
            assert replay_oracle(wal_dir)["d"] == (leader[0], 1)

    def test_concurrent_flushes_of_different_documents(self, monkeypatch):
        """Eight documents flushed at once: each batch is reduced once,
        on its own, and ends where it ends flushed alone."""
        calls = []
        monkeypatch.setattr(store_mod, "reduce_deterministic",
                            _counted(calls))
        doc_ids = ["d{}".format(index) for index in range(8)]
        baseline = StatelessBaseline()
        with DocumentStore() as store:
            for doc_id in doc_ids:
                for executor in (store, baseline):
                    executor.open(doc_id, self.DOC)
                    executor.submit(doc_id, PUL(_independent_ops(
                        store.document(doc_id))))
                baseline.flush(doc_id)
            start = threading.Barrier(len(doc_ids))
            failures = []

            def flush(doc_id):
                try:
                    start.wait(timeout=10)
                    store.flush(doc_id)
                except Exception as exc:
                    failures.append(exc)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=flush, args=(doc_id,))
                           for doc_id in doc_ids]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert failures == []
            for doc_id in doc_ids:
                assert store.text(doc_id) == baseline.text(doc_id)
        assert calls == [16] * len(doc_ids)


class TestLoggedAsReduced:
    DOC = "<r><a><b/></a><c/></r>"

    def _batch(self, document):
        a, c = (node for node in document.root.children)
        return PUL([ReplaceChildren(a.node_id, [Node.text("x")]),
                    Rename(c.node_id, "d")])

    def test_a_strict_repc_is_logged_strict_and_in_reduction_order(
            self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with DocumentStore(durability="log", wal_dir=wal_dir) as store:
            source = store.enable_replication()
            seq0 = source.next_seq
            store.open("d", self.DOC)
            batch = self._batch(store.document("d"))
            batch.attach_labels(store._entries["d"].published.labeling)
            expected = reduce_deterministic(batch)
            store.submit("d", self._batch(store.document("d")))
            store.flush("d")
            leader = _state(store)
            page = source.read(from_token=encode_token(
                source.stream_id, seq0), decode=False)
            [record] = [event["record"] for event in page["events"]
                        if event["record"]["kind"] == "batch"]
            logged = pul_from_xml(record["pul"])
            # an aggregation pass over the reduced batch would rewrite
            # the repC as strict="false" and put the stage-1 rename first
            assert 'strict="false"' not in record["pul"]
            assert [op.op_name for op in logged] == \
                ["replaceChildren", "rename"]
            assert list(logged) == list(expected)
            assert all(op.strict for op in logged
                       if op.op_name == "replaceChildren")
            with ReplicaStore() as replica:
                replica.bootstrap([], seq0, stream=source.stream_id)
                replica.apply_records(page)
                assert _state(replica) == leader
        with DocumentStore(durability="log", wal_dir=wal_dir) as restarted:
            assert _state(restarted) == leader
        assert replay_oracle(wal_dir)["d"] == (leader[0], 1)
        assert leader[0] == "<r><a>x</a><d/></r>"

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", (0, 1, 2, 3))
    def test_every_host_of_the_log_stands_where_the_leader_stands(
            self, tmp_path, family, seed):
        """Batch by batch, a replica fed the stream stands at the
        leader's text, label digits and index; at the end a restart and
        ``replay_oracle`` do too."""
        wal_dir = str(tmp_path / "wal")
        text, batches = _chain(family, seed)
        with DocumentStore(durability="log", wal_dir=wal_dir) as store, \
                ReplicaStore() as replica:
            source = store.enable_replication()
            seq0 = source.next_seq
            replica.bootstrap([], seq0, stream=source.stream_id)
            token = encode_token(source.stream_id, seq0)
            store.open("d", text)
            for submissions in batches:
                for client, pul in submissions:
                    store.submit("d", pul, client=client)
                store.flush("d")
                page = source.read(from_token=token, decode=False)
                replica.apply_records(page)
                token = page["token"]
                assert _state(replica) == _state(store)
            leader = _state(store)
        with DocumentStore(durability="log", wal_dir=wal_dir) as restarted:
            assert _state(restarted) == leader
        assert replay_oracle(wal_dir)["d"] == (leader[0], len(batches))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_a_flush_applies_what_reduce_then_apply_gives(data):
    """For any document and applicable PUL, a flush ends at the bytes of
    the sequential reduce + in-memory apply — and where that refuses
    the PUL (e.g. renames colliding on an attribute name), the flush
    refuses it too and the document stays as it was."""
    document = data.draw(documents())
    pul = data.draw(applicable_puls(document, max_ops=8))
    text = serialize(document)
    labeled = pul.copy()
    labeled.attach_labels(ContainmentLabeling().build(document))
    try:
        expected = apply_in_memory(text, reduce_deterministic(labeled))
    except NotApplicableError:
        expected = None
    with DocumentStore() as store:
        store.open("d", text)
        store.submit("d", pul)
        if expected is None:
            with pytest.raises(NotApplicableError):
                store.flush("d")
            assert store.text("d") == text
        else:
            store.flush("d")
            assert store.text("d") == expected
