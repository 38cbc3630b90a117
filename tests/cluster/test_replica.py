""":class:`ReplicaStore`: bootstrap, streamed apply, read-only
enforcement, durable restart, and promotion."""

import pytest

from repro.cluster import ReplicaStore
from repro.cluster.tokens import encode_token
from repro.errors import ClusterError, NotLeaderError
from repro.store import DocumentStore, replay_oracle
from repro.xquery import compile_pul

DOC = "<doc><items/><meta><owner>o</owner></meta></doc>"
LEADER_ADDR = "127.0.0.1:7000"


def make_leader(tmp_path, name="leader-wal", **kwargs):
    store = DocumentStore(durability="log",
                          wal_dir=str(tmp_path / name), **kwargs)
    store.enable_replication()
    return store


def make_replica(tmp_path=None, name="replica-wal", **kwargs):
    kwargs.setdefault("leader_address", LEADER_ADDR)
    if tmp_path is not None:
        kwargs.setdefault("durability", "log")
        kwargs.setdefault("wal_dir", str(tmp_path / name))
    return ReplicaStore(**kwargs)


def read_page(leader, seq, limit=500):
    """The raw ``subscribe`` page from sequence ``seq``."""
    source = leader.replication
    return source.read(from_token=encode_token(source.stream_id, seq),
                       decode=False, max_events=limit)


def pump(leader, replica, limit=500):
    """Ship everything the replica has not applied yet."""
    page = read_page(leader, replica.applied_seq, limit)
    replica.apply_records(page)
    return page["events"]


def bootstrap(leader, replica):
    export = leader.export_state()
    replica.bootstrap(export["docs"], export["seq"],
                      stream=export["stream"])


def writes(leader, doc_id="d1", rounds=3, client="c1"):
    for index in range(rounds):
        leader.submit_xquery(
            doc_id, 'insert node <x n="{}"/> as last into '
                    '/doc/items'.format(index), client=client)
        leader.flush(doc_id)


class TestStreaming:
    def test_bootstrap_then_stream_matches_leader(self, tmp_path):
        with make_leader(tmp_path) as leader, make_replica() as replica:
            leader.open("d1", DOC)
            writes(leader, rounds=2)
            bootstrap(leader, replica)
            assert replica.text("d1") == leader.text("d1")
            writes(leader, rounds=3)
            leader.submit_xquery(
                "d1", 'rename node /doc/meta/owner as "keeper"',
                client="c2")
            leader.flush("d1")
            pump(leader, replica)
            assert replica.text("d1") == leader.text("d1")
            assert replica.version("d1") == leader.version("d1") == 6
            assert replica.applied_seq == leader.replication.next_seq

    def test_replica_state_equals_leader_replay(self, tmp_path):
        """Invariant 8: replica state ≡ what the leader's own WAL
        replays to (the stateless oracle over the leader's directory),
        byte for byte."""
        with make_leader(tmp_path) as leader, make_replica() as replica:
            leader.open("d1", DOC)
            leader.open("d2", "<doc><items/></doc>")
            bootstrap(leader, replica)
            writes(leader, "d1", rounds=3)
            writes(leader, "d2", rounds=2, client="c9")
            pump(leader, replica)
            oracle = replay_oracle(leader._durability.directory)
            for doc_id in ("d1", "d2"):
                text, version = oracle[doc_id]
                assert replica.text(doc_id) == text
                assert replica.version(doc_id) == version

    def test_open_close_and_full_relabels_stream(self, tmp_path):
        with make_leader(tmp_path, max_code_length=2) as leader, \
                make_replica(max_code_length=2) as replica:
            bootstrap(leader, replica)
            leader.open("d1", DOC)
            # max_code_length=2 forces full relabels through the
            # headroom rule; the stream must reproduce them
            writes(leader, rounds=4)
            leader.open("d2", "<doc><items/></doc>")
            leader.close_document("d2")
            records = pump(leader, replica)
            kinds = {r["record"]["kind"] for r in records}
            assert {"open", "batch", "close"} <= kinds
            assert replica.text("d1") == leader.text("d1")
            assert "d2" not in replica
            assert replica.stats("d1")["full_relabels"] == \
                leader.stats("d1")["full_relabels"] > 0

    def test_redelivery_is_idempotent_and_gaps_raise(self, tmp_path):
        with make_leader(tmp_path) as leader, make_replica() as replica:
            leader.open("d1", DOC)
            writes(leader, rounds=2)
            bootstrap(leader, replica)
            writes(leader, rounds=1)
            page = read_page(leader, replica.applied_seq)
            next_seq = replica.apply_records(page)
            before = replica.text("d1")
            # the exact same page again: a no-op
            replica.apply_records(page)
            assert replica.text("d1") == before
            assert replica.applied_seq == next_seq
            # a gap is a stream bug, never silently applied
            writes(leader, rounds=2)
            gapped = read_page(leader, replica.applied_seq + 1)
            with pytest.raises(ClusterError):
                replica.apply_records(gapped)

    def test_failed_leader_batch_never_reaches_the_stream(self, tmp_path):
        """Two clients renaming one node is an incompatible union: the
        leader's flush fails before anything is logged, so no record of
        it reaches the stream, and the replica, fed the next good
        batch, tracks the leader at version 1."""
        with make_leader(tmp_path) as leader, make_replica() as replica:
            leader.open("d1", DOC)
            bootstrap(leader, replica)
            seq = leader.replication.next_seq
            leader.submit_xquery(
                "d1", 'rename node /doc/meta/owner as "a"', client="c1")
            leader.submit_xquery(
                "d1", 'rename node /doc/meta/owner as "b"', client="c2")
            with pytest.raises(Exception):
                leader.flush("d1")
            assert leader.replication.next_seq == seq
            assert read_page(leader, seq)["events"] == []
            leader.discard_pending("d1")
            writes(leader, rounds=1)
            shipped = [event["record"] for event in pump(leader, replica)]
            assert [(record["kind"], record["version"])
                    for record in shipped] == [("batch", 1)]
            assert replica.text("d1") == leader.text("d1")
            assert replica.version("d1") == leader.version("d1") == 1


class TestReadOnly:
    def test_every_write_bounces_with_the_leader_address(self, tmp_path):
        with make_leader(tmp_path) as leader, make_replica() as replica:
            leader.open("d1", DOC)
            bootstrap(leader, replica)
            pump(leader, replica)
            calls = [
                lambda: replica.open("d2", DOC),
                lambda: replica.submit("d1", compile_pul(
                    'delete nodes /doc/items', leader.document("d1"))),
                lambda: replica.submit_xquery(
                    "d1", 'delete nodes /doc/items'),
                lambda: replica.flush("d1"),
                lambda: replica.flush_all(),
                lambda: replica.discard_pending("d1"),
                lambda: replica.close_document("d1"),
            ]
            for call in calls:
                with pytest.raises(NotLeaderError) as excinfo:
                    call()
                assert excinfo.value.code == "not-leader"
                assert excinfo.value.leader == LEADER_ADDR

    def test_reads_are_served_locally(self, tmp_path):
        with make_leader(tmp_path) as leader, make_replica() as replica:
            leader.open("d1", DOC)
            writes(leader, rounds=2)
            bootstrap(leader, replica)
            assert replica.doc_ids() == ["d1"]
            assert replica.stats("d1")["version"] == 2
            result = replica.query("d1", "/doc/items/x")
            assert result["count"] == 2
            assert result["nodes"] == ['<x n="0"/>', '<x n="1"/>']


#: every client write of a store: (operation name the refusal carries,
#: the call); each call succeeds once the replica is promoted
CLIENT_WRITES = [
    ("open", lambda store, pul: store.open("d2", DOC)),
    ("close", lambda store, pul: store.close_document("d1")),
    ("bulk-import", lambda store, pul: store.bulk_load(
        [{"doc_id": "d3", "xml": DOC}])),
    ("submit", lambda store, pul: store.submit("d1", pul)),
    ("submit-xquery", lambda store, pul: store.submit_xquery(
        "d1", "insert node <y/> as last into /doc/items")),
    ("discard", lambda store, pul: store.discard_pending("d1")),
    ("flush", lambda store, pul: store.flush("d1")),
    ("flush", lambda store, pul: store.flush_all()),
]


class TestWriteGuard:
    """A replica refuses each client write in the store's one write
    guard, before anything is parsed, compiled or queued."""

    @pytest.mark.parametrize(
        "operation, write", CLIENT_WRITES,
        ids=[name for name, __ in CLIENT_WRITES[:-1]] + ["flush-all"])
    def test_refused_before_any_work_then_served_once_promoted(
            self, monkeypatch, operation, write):
        import repro.store.store as store_module
        import repro.xquery.compiler as compiler

        with DocumentStore() as source, \
                make_replica() as replica:
            source.open("d1", DOC)
            replica.bootstrap(source.export_state()["docs"], 0)
            pul = compile_pul("delete nodes /doc/meta",
                              replica.document("d1"))
            with monkeypatch.context() as patch:
                def refused(*args, **kwargs):
                    raise AssertionError("a refused write did work")

                patch.setattr(store_module, "parse_document", refused)
                patch.setattr(compiler, "compile_pul", refused)
                with pytest.raises(NotLeaderError) as excinfo:
                    write(replica, pul)
            assert excinfo.value.leader == LEADER_ADDR
            assert "cannot accept {} (leader: {})".format(
                operation, LEADER_ADDR) in str(excinfo.value)
            assert replica.doc_ids() == ["d1"]
            assert replica.stats("d1")["pending"] == 0
            assert replica.version("d1") == 0
            replica.promote(allow_non_durable=True)
            replica.submit("d1", pul)
            write(replica, pul)


class TestDurableReplica:
    def test_restart_recovers_state_and_cursor(self, tmp_path):
        with make_leader(tmp_path) as leader:
            leader.open("d1", DOC)
            writes(leader, rounds=2)
            replica = make_replica(tmp_path)
            bootstrap(leader, replica)
            writes(leader, rounds=2)
            pump(leader, replica)
            expected = replica.text("d1")
            seq = replica.applied_seq
            stream = replica.stream_id
            replica.close()

            reopened = make_replica(tmp_path)
            try:
                assert reopened.applied_seq == seq
                assert reopened.stream_id == stream
                assert reopened.text("d1") == expected
                # and the stream resumes in place: no reset needed
                writes(leader, rounds=1)
                pump(leader, reopened)
                assert reopened.text("d1") == leader.text("d1")
            finally:
                reopened.close()

    def test_crash_before_cursor_redelivery_never_wedges(self, tmp_path):
        """Regression: a crash between applying a streamed ``open`` and
        writing the ``repl-pos`` cursor makes the leader re-ship the
        record. The redelivered open must be a no-op — not a
        "log opens twice" error — and must not write a duplicate open
        into the replica's own WAL (which would poison its next
        restart)."""
        with make_leader(tmp_path) as leader:
            replica = make_replica(tmp_path)
            bootstrap(leader, replica)
            leader.open("d1", DOC)
            writes(leader, rounds=1)
            leader.open("d2", "<doc><items/></doc>")
            leader.close_document("d2")
            page = read_page(leader, replica.applied_seq)
            next_seq = replica.apply_records(page)
            expected = replica.text("d1")
            # simulate the lost cursor: the state was applied but the
            # repl-pos record never reached the replica's WAL
            replica.applied_seq = next_seq - len(page["events"])
            replica.apply_records(page)   # redelivery
            assert replica.text("d1") == expected
            assert replica.applied_seq == next_seq
            replica.close()
            # and the replica's own WAL still recovers (no duplicate
            # opens poisoning replay)
            reopened = make_replica(tmp_path)
            try:
                assert reopened.text("d1") == expected
                assert "d2" not in reopened
                writes(leader, rounds=1)
                pump(leader, reopened)
                assert reopened.text("d1") == leader.text("d1")
            finally:
                reopened.close()

    def test_rebootstrap_replaces_the_old_timeline(self, tmp_path):
        """After a reset (new leader epoch), the replica's own WAL must
        recover to the *new* state, not a blend of both."""
        with make_leader(tmp_path, name="wal-a") as first:
            first.open("d1", DOC)
            writes(first, rounds=1)
            replica = make_replica(tmp_path)
            bootstrap(first, replica)
            pump(first, replica)
        with make_leader(tmp_path, name="wal-b") as second:
            second.open("d1", "<doc><items/><fresh/></doc>")
            writes(second, rounds=2)
            bootstrap(second, replica)
            pump(second, replica)
            expected = replica.text("d1")
            assert "<fresh/>" in expected
            replica.close()
            reopened = make_replica(tmp_path)
            try:
                assert reopened.text("d1") == expected
                assert reopened.stream_id == second.replication.stream_id
            finally:
                reopened.close()


class TestPromote:
    def test_promote_accepts_writes_and_feeds_followers(self, tmp_path):
        with make_leader(tmp_path) as leader:
            leader.open("d1", DOC)
            writes(leader, rounds=2)
            replica = make_replica(tmp_path)
            bootstrap(leader, replica)
            pump(leader, replica)
        result = replica.promote()
        assert result == {"role": "leader", "promoted": True,
                          "applied_seq": replica.applied_seq}
        assert replica.promote()["promoted"] is False   # idempotent
        try:
            # writes now land
            replica.submit_xquery(
                "d1", 'insert node <post/> as last into /doc/items',
                client="c1")
            replica.flush("d1")
            assert "<post/>" in replica.text("d1")
            # and a follower of the promoted node bootstraps cleanly
            follower = make_replica(leader_address="promoted:0")
            try:
                bootstrap(replica, follower)
                writes(replica, rounds=1)
                pump(replica, follower)
                assert follower.text("d1") == replica.text("d1")
            finally:
                follower.close()
        finally:
            replica.close()

    def test_promoting_a_non_durable_replica_needs_force(self, tmp_path):
        """A WAL-less replica makes a leader that cannot keep the
        failover guarantees; promote refuses unless explicitly
        forced (the last-resort salvage path)."""
        with make_leader(tmp_path) as leader, make_replica() as replica:
            leader.open("d1", DOC)
            bootstrap(leader, replica)
            with pytest.raises(ClusterError):
                replica.promote()
            assert replica.role == "replica"
            result = replica.promote(allow_non_durable=True)
            assert result["promoted"] and replica.role == "leader"
            replica.submit_xquery(
                "d1", 'insert node <salvaged/> as last into /doc/items',
                client="c1")
            replica.flush("d1")
            assert "<salvaged/>" in replica.text("d1")

    def test_promoting_a_plain_store_is_refused(self, tmp_path):
        from repro.api.dispatch import StoreDispatcher

        with DocumentStore() as store:
            with pytest.raises(ClusterError):
                StoreDispatcher(store).promote()
