"""The leader-side :class:`ReplicationSource` and its one read: record
numbering, backlog, rotation survival, long-poll, filtering, decoded
and raw events, epoch fencing and capture consistency."""

import threading
import time

import pytest

from repro.cluster.tokens import decode_token, encode_token
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
    store = DocumentStore(durability=durability,
                          wal_dir=str(tmp_path / name), **kwargs)
    store.enable_replication(backlog=backlog)
    return store


def flush_insert(store, doc_id="d1", client="c1"):
    store.submit_xquery(doc_id, 'insert node <x/> as last into '
                                '/doc/items', client=client)
    store.flush(doc_id)


def read_at(source, seq, **kwargs):
    """Raw records from sequence ``seq`` of the source's epoch."""
    kwargs.setdefault("decode", False)
    return source.read(from_token=encode_token(source.stream_id, seq),
                       **kwargs)


def seqs(page):
    return [event["seq"] for event in page["events"]]


def kinds(page):
    return [event["record"]["kind"] for event in page["events"]]


def cursor(page):
    return decode_token(page["token"])[1]


class TestNumbering:
    def test_records_are_numbered_from_the_source_anchor(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            assert source.next_seq == 0
            store.open("d1", DOC)              # seq 0: open
            flush_insert(store)                # seq 1: batch
            flush_insert(store)                # seq 2: batch
            page = read_at(source, 0)
            assert kinds(page) == ["open", "batch", "batch"]
            assert seqs(page) == [0, 1, 2]
            assert cursor(page) == page["end_seq"] == 3
            assert page["stream"] == source.stream_id

    def test_reads_are_incremental_and_bounded(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            store.open("d1", DOC)
            for __ in range(4):
                flush_insert(store)
            first = read_at(source, 0, max_events=2)
            assert seqs(first) == [0, 1] and cursor(first) == 2
            rest = source.read(from_token=first["token"], decode=False,
                               max_events=100)
            assert seqs(rest) == [2, 3, 4]
            assert cursor(rest) == rest["end_seq"] == 5
            # caught up: an immediate read returns empty, not an error
            empty = source.read(from_token=rest["token"])
            assert empty["events"] == []
            assert empty["token"] == rest["token"]

    def test_future_seq_is_expired_and_garbage_a_protocol_error(
            self, tmp_path):
        with make_leader(tmp_path) as store:
            # a position this epoch never issued: the follower must
            # re-bootstrap, so the answer is the typed one it acts on
            with pytest.raises(ResumeExpiredError):
                read_at(store.replication, 7)
            for garbage in ("garbage", 7, True):
                with pytest.raises(ProtocolError):
                    store.replication.read(from_token=garbage)

    def test_history_before_the_source_is_not_streamed(self, tmp_path):
        """A source attached to a store with existing durable state
        anchors at the log end: old records are state-export
        territory, never stream records."""
        wal_dir = str(tmp_path / "pre")
        with DocumentStore(durability="log", wal_dir=wal_dir) as store:
            store.open("d1", DOC)
            flush_insert(store)
        with DocumentStore(durability="log", wal_dir=wal_dir) as store:
            source = store.enable_replication()
            assert source.next_seq == 0
            flush_insert(store)
            assert kinds(read_at(source, 0)) == ["batch"]


class TestReads:
    def test_history_reads_from_the_anchor(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            anchor = source.tail_token()
            store.open("d1", DOC)
            flush_insert(store)
            page = source.read(from_token=anchor)
            assert [e["kind"] for e in page["events"]] == \
                ["open", "batch"]
            assert seqs(page) == [0, 1]
            # the page token resumes past everything scanned
            assert cursor(page) == page["end_seq"]

    def test_no_token_means_live_tail_only(self, tmp_path):
        with make_leader(tmp_path) as store:
            store.open("d1", DOC)
            flush_insert(store)
            source = store.replication
            page = source.read()          # anchored at the live end
            assert page["events"] == []
            flush_insert(store)
            page = source.read(from_token=page["token"])
            assert [e["kind"] for e in page["events"]] == ["batch"]

    def test_decoded_batch_events_carry_versions_and_ops(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            anchor = source.tail_token()
            store.open("d1", DOC)
            flush_insert(store, client="alice")
            events = source.read(from_token=anchor)["events"]
            open_event, batch = events
            assert open_event["doc_id"] == "d1"
            assert open_event["version"] == 0
            assert batch["version"] == 1
            assert batch["clients"] == 1      # producer count, not names
            assert batch["pul"].startswith("<")
            assert len(batch["ops"]) == 1
            assert batch["ops"][0].startswith("ins")

    def test_raw_events_carry_the_untransformed_record(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            anchor = source.tail_token()
            store.open("d1", DOC)
            events = source.read(from_token=anchor,
                                 decode=False)["events"]
            assert events[0]["record"]["kind"] == "open"
            assert events[0]["record"]["doc"]["doc_id"] == "d1"

    def test_each_event_tokens_the_position_after_it(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            anchor = source.tail_token()
            store.open("d1", DOC)
            flush_insert(store)
            flush_insert(store)
            events = source.read(from_token=anchor)["events"]
            # checkpoint mid-poll: resuming from an event's token
            # redelivers exactly the events after it
            resumed = source.read(from_token=events[0]["token"])["events"]
            assert [e["seq"] for e in resumed] == \
                [e["seq"] for e in events[1:]]

    def test_max_events_bounds_the_page(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            anchor = source.tail_token()
            store.open("d1", DOC)
            for __ in range(4):
                flush_insert(store)
            page = source.read(from_token=anchor, max_events=2)
            assert len(page["events"]) == 2
            rest = source.read(from_token=page["token"])
            assert len(rest["events"]) == 3


class TestFiltering:
    def test_doc_filter_selects_and_still_acknowledges(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            anchor = source.tail_token()
            store.open("a", DOC)
            store.open("b", DOC)
            flush_insert(store, "a")
            flush_insert(store, "b")
            page = source.read(from_token=anchor, doc_ids=["b"])
            assert [(e["kind"], e["doc_id"]) for e in page["events"]] \
                == [("open", "b"), ("batch", "b")]
            # filtered-out records are acknowledged: the token covers
            # the whole scan, so the next poll is empty, not a replay
            assert source.read(from_token=page["token"])["events"] == []

    def test_filtered_scan_loops_past_unmatched_history(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            anchor = source.tail_token()
            store.open("a", DOC)
            for __ in range(5):
                flush_insert(store, "a")
            store.open("b", DOC)
            # max_events=2 bounds each slice; the poll must keep
            # scanning past whole pages of filtered-out "a" traffic
            page = source.read(from_token=anchor, doc_ids=["b"],
                               max_events=2)
            assert [e["doc_id"] for e in page["events"]] == ["b"]


class TestBacklog:
    def test_falling_behind_the_backlog_resets(self, tmp_path):
        with make_leader(tmp_path, backlog=3) as store:
            source = store.replication
            store.open("d1", DOC)
            for __ in range(5):
                flush_insert(store)
            # 6 records total, 3 retained: seq 0 is gone
            with pytest.raises(SubscriptionLaggedError) as excinfo:
                read_at(source, 0)
            assert excinfo.value.first_seq == source.first_seq > 0
            assert len(read_at(source, source.first_seq)["events"]) == 3

    def test_backlog_must_be_positive(self, tmp_path):
        with pytest.raises(ClusterError):
            make_leader(tmp_path, backlog=0)

    def test_replication_requires_durability(self):
        with DocumentStore() as store:
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
            page = read_at(source, 0)
            assert kinds(page).count("batch") == 7
            assert seqs(page) == list(range(cursor(page)))

    def test_manual_snapshot_mid_stream(self, tmp_path):
        with make_leader(tmp_path) as store:
            source = store.replication
            store.open("d1", DOC)
            flush_insert(store)
            token = read_at(source, 0)["token"]
            assert store.snapshot() is not None
            flush_insert(store)
            page = source.read(from_token=token, decode=False)
            assert kinds(page) == ["batch"]


class TestLongPoll:
    def test_wait_returns_early_on_a_matching_event(self, tmp_path):
        with make_leader(tmp_path) as store:
            store.open("d1", DOC)
            source = store.replication
            anchor = source.tail_token()

            def later():
                time.sleep(0.15)
                flush_insert(store)

            thread = threading.Thread(target=later)
            thread.start()
            started = time.monotonic()
            try:
                page = source.read(from_token=anchor, wait_s=30.0)
            finally:
                thread.join()
            elapsed = time.monotonic() - started
            assert [e["kind"] for e in page["events"]] == ["batch"]
            assert elapsed < 10.0   # returned on the wakeup, not timeout

    def test_wait_times_out_empty(self, tmp_path):
        with make_leader(tmp_path) as store:
            page = store.replication.read(wait_s=0.05)
            assert page["events"] == []
            assert cursor(page) == page["end_seq"] == 0


class TestFencing:
    def test_foreign_epoch_token_is_resume_expired(self, tmp_path):
        with make_leader(tmp_path) as store:
            stale = encode_token("deadbeef", 3)
            with pytest.raises(ResumeExpiredError) as info:
                store.replication.read(from_token=stale)
            assert info.value.token_stream == "deadbeef"
            assert info.value.stream == store.replication.stream_id

    def test_restart_fences_old_tokens(self, tmp_path):
        with make_leader(tmp_path) as store:
            store.open("d1", DOC)
            token = store.replication.read()["token"]
        with make_leader(tmp_path) as store:   # same WAL, new epoch
            with pytest.raises(ResumeExpiredError):
                store.replication.read(from_token=token)

    def test_trimmed_backlog_is_subscription_lagged(self, tmp_path):
        with make_leader(tmp_path, backlog=4) as store:
            source = store.replication
            anchor = source.tail_token()
            store.open("d1", DOC)
            for __ in range(12):
                flush_insert(store)
            with pytest.raises(SubscriptionLaggedError) as info:
                source.read(from_token=anchor)
            assert info.value.first_seq > 0


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
            read_at(source, 1, subscriber="r1")
            stats = source.stats()
            assert stats["seq"] == 2
            assert stats["subscribers"]["r1"]["acked_seq"] == 1
            assert stats["subscribers"]["r1"]["lag"] == 1
            assert stats["wal"]["generation"] == 0
            assert stats["wal"]["offset"] > 0
            assert stats["stream"] == source.stream_id

    def test_named_subscribers_appear_in_stats_until_forgotten(
            self, tmp_path):
        with make_leader(tmp_path) as store:
            store.open("d1", DOC)
            store.replication.read(subscriber="consumer-1")
            assert "consumer-1" in store.replication.stats()["subscribers"]
            assert store.replication.forget_subscriber("consumer-1")
            assert "consumer-1" not in \
                store.replication.stats()["subscribers"]
            # forgetting an unknown subscriber reports False, not an error
            assert not store.replication.forget_subscriber("nobody")
