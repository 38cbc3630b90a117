"""Cross-client group commit: one leader fsync covers a whole train.

The contract under test: concurrent flushes share fsyncs but *no flush
ever returns before its own record is behind the synced horizon*, and a
record destroyed by a failed-fsync rollback fails its flush — even when
other records later re-fill its byte range and push the horizon past
its old end offset (the false-durable hazard).
"""

import os
import sys
import threading
import time

import pytest

import repro.store.durability.recovery as recovery_module
import repro.store.durability.wal as wal_module
from repro.errors import DurabilityError
from repro.pul.ops import Rename
from repro.pul.pul import PUL
from repro.store import DocumentStore
from repro.store.durability.recovery import (
    DurabilityManager,
    DurabilityPolicy,
    decode_payload,
)
from repro.store.durability.wal import WalWriter, scan_wal


def _manager(tmp_path, **kwargs):
    manager = DurabilityManager(str(tmp_path / "wal"),
                                DurabilityPolicy("log"), **kwargs)
    manager.start()
    return manager


class TestCommitTrain:
    def test_concurrent_batches_share_fsyncs(self, tmp_path, monkeypatch):
        """N threads logging batches at once pay far fewer than N
        fsyncs, and every one of them still gets its record on disk."""
        manager = _manager(tmp_path)
        real_fsync = os.fsync
        calls = []

        def slow_fsync(fd):
            calls.append(fd)
            time.sleep(0.02)
            return real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", slow_fsync)
        clients = 16
        barrier = threading.Barrier(clients)
        errors = []

        def log_one(version):
            barrier.wait()
            try:
                manager.log_batch("d", version, 1, "<x/>")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=log_one, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        batch_fsyncs = len(calls)
        manager.close()
        assert not errors
        # amortization: simultaneous arrivals board a shared train
        # (worst case a handful of trains, never one fsync per record)
        assert batch_fsyncs < clients
        payloads, __, clean = scan_wal(manager._wal_path(0))
        assert clean
        assert len(payloads) == clients

    def test_group_window_holds_the_train_for_riders(self, tmp_path):
        manager = _manager(tmp_path, group_window=0.01)
        assert manager.group_window == 0.01
        manager.log_batch("d", 1, 1, "<x/>")  # leader sleeps, then syncs
        manager.close()
        payloads, __, clean = scan_wal(manager._wal_path(0))
        assert clean and len(payloads) == 1

    def test_ack_never_precedes_the_synced_horizon(self, tmp_path,
                                                   monkeypatch):
        """When log_batch returns, the record must already be readable
        below synced_size (the replication/recovery horizon)."""
        manager = _manager(tmp_path)
        horizons = []
        real_log_batch = manager.log_batch

        def checked(*args):
            real_log_batch(*args)
            writer = manager._writer
            horizons.append(writer.synced_size >= writer.size)

        for version in range(4):
            checked("d", version, 1, "<x/>")
        manager.close()
        assert all(horizons)


    def test_snapshot_counter_is_exact_under_concurrent_batches(
            self, tmp_path):
        """``batches_since_snapshot`` is reset by ``begin_rotation``
        under the manager lock; ``log_batch`` used to bump it after
        the lock was released, so two documents flushing at once could
        lose an increment or write a pre-rotation count back over the
        reset. Every write now happens under the lock, and the count
        is exact."""
        unlocked_writes, counted = [], []

        class Audited(DurabilityManager):
            @property
            def batches_since_snapshot(self):
                return self._count

            @batches_since_snapshot.setter
            def batches_since_snapshot(self, value):
                if self._writer is not None:
                    if not self._lock.locked():
                        unlocked_writes.append(value)
                    if value == 0:      # a rotation: bank the count
                        counted.append(self._count)
                self._count = value

        manager = Audited(str(tmp_path / "wal"),
                          DurabilityPolicy("snapshot", snapshot_every=10**9,
                                           fsync=False))
        manager.start()
        threads, per_thread = 4, 150

        def hammer(name):
            for version in range(per_thread):
                manager.log_batch(name, version, 1, "<x/>")

        def rotate():
            for __ in range(20):
                time.sleep(0.002)
                manager.begin_rotation()

        workers = [threading.Thread(target=hammer, args=("d%d" % i,))
                   for i in range(threads)]
        workers.append(threading.Thread(target=rotate))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        counted.append(manager.batches_since_snapshot)
        manager.close()
        assert unlocked_writes == []
        assert sum(counted) == threads * per_thread


class TestSnapshotEncode:
    def test_an_append_does_not_wait_out_the_snapshot_encode(
            self, tmp_path, monkeypatch):
        """``commit_snapshot`` encodes its payloads, one document at a
        time, without the manager lock: while a document's encode is
        held, an append from another thread returns with its record
        durable in the next segment."""
        manager = _manager(tmp_path)
        manager.log_batch("d", 1, 1, "<x/>")
        encoding, release = threading.Event(), threading.Event()
        released = []
        real_encode = recovery_module.encode_payload

        def held_encode(record):
            if record["kind"] == "open":  # a document of the snapshot
                encoding.set()
                # the append below releases it; the deadline only keeps
                # an append that waits for the encode from hanging
                released.append(release.wait(30))
            return real_encode(record)

        monkeypatch.setattr(recovery_module, "encode_payload", held_encode)
        sealed = manager.begin_rotation()
        snapshot = threading.Thread(target=manager.commit_snapshot,
                                    args=(sealed, [{"doc_id": "d"}]))
        snapshot.start()
        assert encoding.wait(30)
        manager.log_batch("d", 2, 1, "<y/>")
        payloads, __, __ = scan_wal(manager._wal_path(sealed + 1))
        release.set()
        snapshot.join(30)
        manager.close()
        assert released == [True]
        assert [decode_payload(p)["version"] for p in payloads] == [2]


class TestFsyncFailure:
    def test_failed_fsync_fails_the_flush_and_drops_the_record(
            self, tmp_path, monkeypatch):
        manager = _manager(tmp_path)
        real_fsync = os.fsync
        state = {"fail": True}

        def flaky_fsync(fd):
            if state["fail"]:
                state["fail"] = False
                raise OSError(28, "No space left on device")
            return real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", flaky_fsync)
        with pytest.raises(DurabilityError):
            manager.log_batch("d", 1, 1, "<x/>")
        manager.log_batch("d", 2, 1, "<y/>")
        manager.close()
        payloads, __, clean = scan_wal(manager._wal_path(0))
        assert clean
        assert len(payloads) == 1
        assert b'"version":2' in payloads[0]

    def test_destroyed_record_is_not_resurrected_by_later_syncs(
            self, tmp_path, monkeypatch):
        """Offsets of a rolled-back record may be re-filled by later
        records; the current horizon passing the old end offset must
        not read as durability (first-rollback target decides)."""
        manager = _manager(tmp_path)
        writer = manager._writer
        epoch = writer.rollback_epoch
        end = writer.append(b"doomed-record", sync=False)
        real_fsync = os.fsync
        state = {"fail": True}

        def flaky_fsync(fd):
            if state["fail"]:
                state["fail"] = False
                raise OSError(28, "No space left on device")
            return real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", flaky_fsync)
        with pytest.raises(DurabilityError):
            writer.sync()
        # re-fill the destroyed record's byte range and beyond
        while writer.size < end:
            writer.append(b"refill-record-with-longer-payload",
                          sync=False)
        writer.sync()
        assert writer.synced_size >= end
        assert manager._commit_status(writer, end, epoch) == "lost"
        manager.close()


class TestAppendFailure:
    def test_failed_append_preserves_earlier_unsynced_records(
            self, tmp_path):
        """A torn append rolls back to the last *complete* record, not
        the synced horizon — other waiters' unsynced records survive
        and the next sync still covers them."""

        class FlakyFile:
            def __init__(self, inner):
                self.inner = inner
                self.fail = True

            def write(self, data):
                if self.fail:
                    self.fail = False
                    raise OSError(28, "No space left on device")
                return self.inner.write(data)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        writer = WalWriter(str(tmp_path / "seg.log"))
        writer.append(b"one", sync=False)
        writer._file = FlakyFile(writer._file)
        with pytest.raises(DurabilityError):
            writer.append(b"two", sync=False)
        writer.append(b"three", sync=False)
        writer.sync()
        writer.close()
        payloads, __, clean = scan_wal(str(tmp_path / "seg.log"))
        assert clean
        assert payloads == [b"one", b"three"]


class TestStoreIntegration:
    def test_concurrent_document_flushes_all_durable(self, tmp_path):
        """Flushes of distinct documents ride one train; recovery sees
        every acknowledged batch."""
        doc = "<bib><paper><title>T</title></paper></bib>"
        docs = ["d{}".format(i) for i in range(6)]
        with DocumentStore(durability="log",
                           wal_dir=str(tmp_path / "wal")) as store:
            for doc_id in docs:
                entry = store.open(doc_id, doc)
                title = next(n.node_id
                             for n in entry.published.document.nodes()
                             if n.is_element and n.name == "title")
                store.submit(doc_id, PUL([Rename(title, "headline")]))
            barrier = threading.Barrier(len(docs))
            errors = []

            def flush_one(doc_id):
                barrier.wait()
                try:
                    store.flush(doc_id)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=flush_one, args=(d,))
                       for d in docs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            expected = {doc_id: store.text(doc_id) for doc_id in docs}
        with DocumentStore(durability="log",
                           wal_dir=str(tmp_path / "wal")) as recovered:
            for doc_id in docs:
                assert recovered.version(doc_id) == 1
                assert recovered.text(doc_id) == expected[doc_id]
                assert "headline" in recovered.text(doc_id)
