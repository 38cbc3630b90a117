"""One commit path: residency changes only behind a durable record,
and the replication stream is exactly what the commit train made
durable.

Two contracts, both under injected ``fsync`` faults:

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
"""

import errno
import os
import random
import sys
import threading
import time

import pytest

from repro.cluster.tokens import decode_token, encode_token
from repro.errors import DurabilityError, WalPoisonedError
from repro.store import DocumentStore
from repro.store.durability import (
    DurabilityManager,
    DurabilityPolicy,
    load_durable_state,
    replay_oracle,
    scan_wal,
)
from repro.store.durability.recovery import decode_payload

DOC = "<doc><items/></doc>"


def _store(wal_dir):
    return DocumentStore(workers=1, backend="serial", durability="log",
                         wal_dir=str(wal_dir))


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
        # back at the end (write_file_atomically renames, never unlinks)
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
