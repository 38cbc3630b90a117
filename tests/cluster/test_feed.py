"""The leader-side :class:`ReplicationSource`: numbering, backlog,
rotation survival, long-poll and capture consistency."""

import threading
import time

import pytest

from repro.errors import (
    ClusterError,
    ProtocolError,
    ResumeExpiredError,
    SubscriptionLaggedError,
)
from repro.store import DocumentStore

DOC = "<doc><items/></doc>"


def make_leader(tmp_path, name="wal", backlog=None, durability="log",
                **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("backend", "serial")
    store = DocumentStore(durability=durability,
                          wal_dir=str(tmp_path / name), **kwargs)
    store.enable_replication(backlog=backlog)
    return store


def flush_insert(store, doc_id="d1", client="c1"):
    store.submit_xquery(doc_id, 'insert node <x/> as last into '
                                '/doc/items', client=client)
    store.flush(doc_id)


class TestNumbering:
    def test_records_are_numbered_from_the_source_anchor(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            assert source.next_seq == 0
            store.open("d1", DOC)              # seq 0: open
            flush_insert(store)                # seq 1: batch
            flush_insert(store)                # seq 2: batch
            records, next_seq, end_seq = source.read_from(0)
            assert [r["record"]["kind"] for r in records] == \
                ["open", "batch", "batch"]
            assert [r["seq"] for r in records] == [0, 1, 2]
            assert next_seq == end_seq == 3

    def test_reads_are_incremental_and_bounded(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            store.open("d1", DOC)
            for __ in range(4):
                flush_insert(store)
            first, cursor, __ = source.read_from(0, limit=2)
            assert [r["seq"] for r in first] == [0, 1] and cursor == 2
            rest, cursor, end = source.read_from(cursor, limit=100)
            assert [r["seq"] for r in rest] == [2, 3, 4]
            assert cursor == end == 5
            # caught up: an immediate read returns empty, not an error
            empty, cursor2, __ = source.read_from(cursor)
            assert empty == [] and cursor2 == cursor

    def test_future_seq_is_expired_and_garbage_a_protocol_error(
            self, tmp_path):
        with make_leader(tmp_path) as store:
            # a position this epoch never issued: the follower must
            # re-bootstrap, so the answer is the typed one it acts on
            with pytest.raises(ResumeExpiredError):
                store.replication.read_from(7)
            with pytest.raises(ProtocolError):
                store.replication.read_from(-1)
            with pytest.raises(ProtocolError):
                store.replication.read_from(True)

    def test_history_before_the_source_is_not_streamed(self, tmp_path):
        """A source attached to a store with existing durable state
        anchors at the log end: old records are state-export
        territory, never stream records."""
        wal_dir = str(tmp_path / "pre")
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=wal_dir) as store:
            store.open("d1", DOC)
            flush_insert(store)
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=wal_dir) as store:
            source = store.enable_replication()
            assert source.next_seq == 0
            flush_insert(store)
            records, __, __unused = source.read_from(0)
            assert [r["record"]["kind"] for r in records] == ["batch"]


class TestBacklog:
    def test_falling_behind_the_backlog_resets(self, tmp_path):
        with make_leader(tmp_path, backlog=3) as store:
            source = store.replication
            store.open("d1", DOC)
            for __ in range(5):
                flush_insert(store)
            # 6 records total, 3 retained: seq 0 is gone
            with pytest.raises(SubscriptionLaggedError) as excinfo:
                source.read_from(0)
            assert excinfo.value.first_seq == source.first_seq > 0
            records, __, __unused = source.read_from(source.first_seq)
            assert len(records) == 3

    def test_backlog_must_be_positive(self, tmp_path):
        with pytest.raises(ClusterError):
            make_leader(tmp_path, backlog=0)

    def test_replication_requires_durability(self):
        with DocumentStore(workers=1, backend="serial") as store:
            with pytest.raises(ClusterError):
                store.enable_replication()


class TestRotation:
    def test_compaction_rotations_do_not_lose_feed_records(self,
                                                           tmp_path):
        """Snapshot compaction seals and *deletes* segments; the
        seal's hand-off must keep every record readable from the
        feed."""
        with make_leader(tmp_path, durability="log+snapshot:2") as store:
            source = store.replication
            store.open("d1", DOC)
            for __ in range(7):          # several compactions at N=2
                flush_insert(store)
            records, next_seq, __ = source.read_from(0)
            kinds = [r["record"]["kind"] for r in records]
            assert kinds.count("batch") == 7
            assert [r["seq"] for r in records] == list(range(next_seq))

    def test_manual_snapshot_mid_stream(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            store.open("d1", DOC)
            flush_insert(store)
            cursor = source.read_from(0)[1]
            assert store.snapshot() is not None
            flush_insert(store)
            records, __, __unused = source.read_from(cursor)
            assert [r["record"]["kind"] for r in records] == ["batch"]


class TestLongPoll:
    def test_wait_returns_early_on_new_records(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            store.open("d1", DOC)
            cursor = source.read_from(0)[1]

            def later():
                time.sleep(0.15)
                flush_insert(store)

            thread = threading.Thread(target=later)
            start = time.monotonic()
            thread.start()
            try:
                records, __, __unused = source.read_from(cursor,
                                                         wait_s=10.0)
            finally:
                thread.join()
            waited = time.monotonic() - start
            assert records and records[0]["record"]["kind"] == "batch"
            assert waited < 8.0   # returned on the wakeup, not timeout

    def test_wait_times_out_empty(self, tmp_path):
        with make_leader(tmp_path) as store:
            records, cursor, end = store.replication.read_from(
                0, wait_s=0.05)
            assert records == [] and cursor == end == 0


class TestCaptureAndStats:
    def test_export_state_pairs_payloads_with_seq(self, tmp_path):
        with make_leader(tmp_path) as store:
            store.open("d1", DOC)
            flush_insert(store)
            export = store.export_state()
            assert [p["doc_id"] for p in export["docs"]] == ["d1"]
            assert export["docs"][0]["version"] == 1
            assert export["seq"] == store.replication.next_seq == 2
            assert export["stream"] == store.replication.stream_id

    def test_subscriber_lag_in_stats(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            store.open("d1", DOC)
            flush_insert(store)
            source.read_from(1, replica="r1")
            stats = source.stats()
            assert stats["seq"] == 2
            assert stats["subscribers"]["r1"]["acked_seq"] == 1
            assert stats["subscribers"]["r1"]["lag"] == 1
            assert stats["wal"]["generation"] == 0
            assert stats["wal"]["offset"] > 0
            assert stats["stream"] == source.stream_id
