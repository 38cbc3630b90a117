"""One follower protocol, every transport — over real sockets.

Replicas follow a leader through the same two ops every other consumer
speaks: ``subscribe(decode=False)`` from a resume token, paged
``export(format="state")`` to bootstrap. The first test runs the
schedule of ``tests/index/test_index_differential.py`` (a failing
batch, a conflict-rejected flush, a hot spot that forces a full
relabel, a root replacement) against a leader followed by a
:class:`ReplicaSync`-fed replica *and* a WAL-less replica the test
feeds itself from ``StoreClient.subscribe_once(decode=False)``, through
one backlog overrun (``subscription-lagged``) and one leader restart
(``resume-expired``): at quiescence both equal the leader in text,
label codes and index. The rest pin each replica behaviour the
protocol swap had to keep.
"""

import time

import pytest

from repro.api import protocol
from repro.api.client import StoreClient
from repro.api.dispatch import StoreDispatcher
from repro.cluster import ReplicaStore, ReplicaSync, parse_address
from repro.cluster.sync import BOOTSTRAP_PAGE_DOCS
from repro.cluster.tokens import encode_token
from repro.errors import (
    NotLeaderError,
    ReproError,
    ResumeExpiredError,
    SubscriptionLaggedError,
)
from repro.store import DocumentStore
from tests.cluster.harness import ServerThread, wait_until
from tests.index.test_index_differential import _Schedule, _state

DOC = "<a><b><c>t</c></b><d k0=\"x\"/></a>"
HEADROOM = 8    # tight: the hot spot must force a full relabel


def make_leader(tmp_path, name="leader", backlog=None, **kwargs):
    store = DocumentStore(workers=1, backend="serial", durability="log",
                          wal_dir=str(tmp_path / name), **kwargs)
    store.enable_replication(backlog=backlog)
    return store


def make_replica(leader_address, tmp_path=None, **kwargs):
    if tmp_path is not None:
        kwargs.update(durability="log",
                      wal_dir=str(tmp_path / "replica"))
    return ReplicaStore(leader_address=leader_address, workers=1,
                        backend="serial", **kwargs)


def follow(replica, address, **kwargs):
    kwargs.setdefault("wait_s", 0.2)
    kwargs.setdefault("backoff", 0.05)
    return ReplicaSync(replica, address, "r1", **kwargs).start()


def connect(address):
    host, port = parse_address(address)
    return StoreClient.connect(host=host, port=port)


def caught_up(replica, leader):
    return wait_until(
        lambda: replica.stream_id == leader.replication.stream_id
        and replica.applied_seq == leader.replication.next_seq)


def insert(store, doc_id="d", name="w"):
    store.submit_xquery(
        doc_id, "insert node <{}/> as last into /a".format(name),
        client="c")
    store.flush(doc_id)


def count_bootstraps(replica):
    """The stream positions ``replica`` was (re-)bootstrapped at."""
    positions = []
    install = replica.bootstrap

    def counted(payloads, seq, stream=None):
        positions.append(seq)
        return install(payloads, seq, stream=stream)

    replica.bootstrap = counted
    return positions


class _Served(list):
    """Served requests in order; :attr:`after` runs after each."""

    @staticmethod
    def after():
        pass


@pytest.fixture()
def exports(monkeypatch):
    """Every ``export`` request any server in this process answers
    (its arguments)."""
    served = _Served()
    export = StoreDispatcher.export

    def counted(self, **kwargs):
        result = export(self, **kwargs)
        served.append(kwargs)
        served.after()
        return result

    monkeypatch.setattr(StoreDispatcher, "export", counted)
    return served


class ClientFollower:
    """The loop of ``cluster/sync.py`` as any other consumer writes
    it: a WAL-less replica behind a blocking client, re-bootstrapping
    on the two typed answers. One document per page, so later pages
    lead the anchor whenever the leader keeps writing."""

    def __init__(self):
        self.replica = make_replica(None, max_code_length=HEADROOM)
        self.token = None
        self.bootstraps = 0

    def catch_up(self, client):
        while True:
            try:
                if self.token is None:
                    self.token = self._bootstrap(client)
                page = client.subscribe_once(from_token=self.token,
                                             decode=False)
            except (ResumeExpiredError, SubscriptionLaggedError):
                self.token = None
                continue
            self.replica.apply_records(page)
            self.token = page["token"]
            if not page["events"]:
                return

    def _bootstrap(self, client):
        self.bootstraps += 1
        first = page = client.export(max_docs=1, format="state")
        docs = list(first["docs"])
        while not page["done"]:
            page = client.export(cursor=page["cursor"], max_docs=1,
                                 format="state")
            docs.extend(page["docs"])
        self.replica.bootstrap(docs, first["seq"],
                               stream=first["stream"])
        return first["token"]


class TestOneScheduleEveryTransport:
    def test_synced_and_client_fed_replicas_track_the_leader(
            self, tmp_path):
        schedule = _Schedule()
        leader = make_leader(tmp_path, backlog=6,
                             max_code_length=HEADROOM)
        node = ServerThread(leader).start()
        replica = make_replica(node.address, max_code_length=HEADROOM)
        bootstraps = count_bootstraps(replica)
        follower = ClientFollower()
        sync = None

        def root():
            return leader._entries["d"].published.document.root

        def flush(submissions, rejected=False):
            for client, pul in submissions:
                leader.submit("d", pul.copy(), client=client)
            if not rejected:
                return leader.flush("d")
            with pytest.raises(ReproError):
                leader.flush("d")
            leader.discard_pending("d")

        def quiesce():
            assert caught_up(replica, leader)
            with connect(node.address) as client:
                follower.catch_up(client)
            expected = _state(leader._entries["d"].published)
            assert _state(replica._entries["d"].published) == expected
            assert _state(
                follower.replica._entries["d"].published) == expected
            assert replica.text("other") == leader.text("other") \
                == follower.replica.text("other")

        try:
            leader.open("d", DOC)
            leader.open("other", DOC)
            sync = follow(replica, node.address)
            flush(schedule.duplicate_attribute(root()))
            flush(schedule.duplicate_attribute(root()), rejected=True)
            quiesce()
            assert (len(bootstraps), follower.bootstraps) == (1, 1)

            # both followers fall silent while the leader outruns its
            # backlog of 6 — and forces a full relabel on the way
            sync.stop()
            for __ in range(16):
                flush(schedule.hot_spot(root()))
                insert(leader, "other")
            assert leader.stats("d")["full_relabels"] >= 1
            sync = follow(replica, node.address)
            quiesce()
            assert (len(bootstraps), follower.bootstraps) == (2, 2)
            # cleared by the first page streamed after the bootstrap
            assert wait_until(lambda: sync.last_error is None)

            # the leader restarts: same durable state, a new stream
            # epoch, every old position fenced
            node.stop()
            leader = make_leader(tmp_path, backlog=6,
                                 max_code_length=HEADROOM)
            node = ServerThread(leader).start()
            sync.leader = node.address
            flush(schedule.conflict(root()), rejected=True)
            flush(schedule.replace_root(root()))
            flush(schedule.duplicate_attribute(root()))
            flush(schedule.duplicate_attribute(root()), rejected=True)
            flush(schedule.hot_spot(root()))
            quiesce()
            assert (len(bootstraps), follower.bootstraps) == (3, 3)
            source = leader.replication
            kinds = [item["record"]["kind"] for item in source.read(
                from_token=encode_token(source.stream_id,
                                        source.first_seq),
                decode=False, max_events=50)["events"]]
            # a failing batch ships its write-ahead record, nothing else
            assert set(kinds) == {"batch"}
        finally:
            if sync is not None:
                sync.stop()
            node.stop()


class TestBootstrap:
    def test_a_state_larger_than_one_frame_arrives_page_by_page(
            self, tmp_path, monkeypatch, exports):
        """The single-frame transfer could never bootstrap a follower
        of a leader whose state outgrew ``MAX_FRAME``: the server
        degraded the oversize result to a ``protocol`` error and the
        loop retried forever."""
        leader = make_leader(tmp_path)
        for index in range(3 * BOOTSTRAP_PAGE_DOCS):
            leader.open("doc-{:03d}".format(index), DOC)

        def frame_size(result):
            return len(protocol.encode_frame(
                protocol.ok_response(1, result), 2))

        whole = frame_size(leader.export_state())
        page = frame_size(leader.export_state(limit=BOOTSTRAP_PAGE_DOCS))
        limit = (whole + page) // 2
        assert page < limit < whole
        monkeypatch.setattr(protocol, "MAX_FRAME", limit)
        with ServerThread(leader) as node:
            replica = make_replica(node.address)
            sync = follow(replica, node.address)
            try:
                insert(leader, "doc-007")
                assert caught_up(replica, leader)
                assert replica.doc_ids() == leader.doc_ids()
                for doc_id in leader.doc_ids():
                    assert replica.text(doc_id) == leader.text(doc_id)
                assert len(exports) == 3 and "cursor" not in exports[0]
            finally:
                sync.stop()

    def test_a_document_closed_between_pages_costs_one_more_bootstrap(
            self, tmp_path, exports):
        """Pages after the first lead the anchor. Across a ``close``
        that leaves the stream naming a document no page carried; the
        position is then worthless and the loop starts over instead of
        retrying it forever."""
        leader = make_leader(tmp_path)
        for index in range(BOOTSTRAP_PAGE_DOCS):
            leader.open("doc-{:03d}".format(index), DOC)
        leader.open("z-last", DOC)

        def close_after_the_first_page():
            if len(exports) == 1:
                insert(leader, "z-last")
                leader.close_document("z-last")

        exports.after = close_after_the_first_page
        with ServerThread(leader) as node:
            replica = make_replica(node.address)
            bootstraps = count_bootstraps(replica)
            sync = follow(replica, node.address)
            try:
                assert wait_until(lambda: len(bootstraps) == 2)
                insert(leader, "doc-000")
                assert caught_up(replica, leader)
                assert "z-last" not in replica
                assert replica.doc_ids() == leader.doc_ids()
                assert replica.text("doc-000") == leader.text("doc-000")
                assert len(bootstraps) == 2
            finally:
                sync.stop()


class TestResume:
    def test_a_restarted_durable_replica_joins_in_place(self, tmp_path,
                                                        exports):
        leader = make_leader(tmp_path)
        with ServerThread(leader) as node:
            leader.open("d", DOC)
            replica = make_replica(node.address, tmp_path)
            sync = follow(replica, node.address)
            insert(leader)
            assert caught_up(replica, leader)
            sync.stop()
            replica.close()
            assert len(exports) == 1          # the fresh bootstrap
            for __ in range(5):
                insert(leader)

            reopened = make_replica(node.address, tmp_path)
            assert reopened.stream_id == leader.replication.stream_id
            # one record per page: the lag gauges must be seen moving
            sync = ReplicaSync(reopened, node.address, "r1", wait_s=0.2,
                               max_records=1)
            behind = []
            note_progress = sync._note_progress

            def spy(applied, end_seq):
                note_progress(applied, end_seq)
                behind.append((sync._m_behind.value, sync.lag_seconds))

            sync._note_progress = spy
            time.sleep(0.01)   # lag is rounded to the millisecond
            sync.start()
            try:
                assert caught_up(reopened, leader)
                assert reopened.text("d") == leader.text("d")
                assert len(exports) == 1      # joined in place: no export
                assert wait_until(lambda: behind and behind[-1][0] == 0)
                assert [b for b, __ in behind[:5]] == [4, 3, 2, 1, 0]
                assert behind[0][1] > 0 and behind[-1][1] == 0.0
                assert sync.status()["behind"] == 0
                # and the leader accounts for the follower by name
                with connect(node.address) as client:
                    block = client.stats()["replication"]
                assert block["subscribers"]["r1"]["lag"] == 0
            finally:
                sync.stop()
                reopened.close()

    def test_a_cursor_past_the_stream_end_rebootstraps(self, tmp_path):
        """A position the epoch never issued is answered with the typed
        ``resume-expired``, and the loop acts on the type."""
        leader = make_leader(tmp_path)
        with ServerThread(leader) as node:
            leader.open("d", DOC)
            insert(leader)
            stream = leader.replication.stream_id
            with connect(node.address) as client:
                with pytest.raises(ResumeExpiredError):
                    client.subscribe_once(
                        from_token=encode_token(stream, 999))
            replica = make_replica(node.address)
            replica.bootstrap([], 999, stream=stream)
            bootstraps = count_bootstraps(replica)
            sync = follow(replica, node.address)
            try:
                assert caught_up(replica, leader)
                assert replica.text("d") == leader.text("d")
                assert len(bootstraps) == 1
            finally:
                sync.stop()


class TestUpstreamWithoutAFeed:
    def test_a_plain_store_is_backed_off_from_typed(self, exports):
        """``export`` answers ``token: null``; the upstream's own
        ``subscribe`` answer supplies the type, and the loop backs
        off instead of spinning."""
        with ServerThread(
                DocumentStore(workers=1, backend="serial")) as node:
            node.store.open("d", DOC)
            replica = make_replica(node.address)
            sync = follow(replica, node.address, backoff=0.1,
                          max_backoff=0.4)
            try:
                assert wait_until(lambda: len(exports) >= 2)
                assert sync.last_error.startswith("ClusterError")
                assert replica.doc_ids() == []
                time.sleep(1.0)
                assert len(exports) <= 8      # backed off, not hot
            finally:
                sync.stop()

    def test_a_replica_upstream_redirects_to_its_leader(self, tmp_path):
        leader = make_leader(tmp_path)
        with ServerThread(leader) as leader_node:
            leader.open("d", DOC)
            middle = make_replica(leader_node.address)
            with ServerThread(middle) as middle_node:
                middle_sync = follow(middle, leader_node.address)
                fresh = make_replica(middle_node.address)
                with connect(middle_node.address) as client:
                    with pytest.raises(NotLeaderError) as excinfo:
                        client.subscribe_once(decode=False)
                    assert excinfo.value.leader == leader_node.address
                sync = follow(fresh, middle_node.address)
                try:
                    insert(leader)
                    assert caught_up(fresh, leader)
                    assert sync.leader == leader_node.address
                    assert fresh.leader_address == leader_node.address
                    assert fresh.text("d") == leader.text("d")
                finally:
                    sync.stop()
                    middle_sync.stop()


class TestPromote:
    def test_promote_stops_the_loop_before_flipping_the_role(
            self, tmp_path):
        leader = make_leader(tmp_path)
        with ServerThread(leader) as leader_node:
            leader.open("d", DOC)
            replica = make_replica(leader_node.address, tmp_path)
            with ServerThread(replica) as replica_node:
                sync = follow(replica, leader_node.address)
                roles = []
                stop = sync.stop

                def stop_and_note(**kwargs):
                    roles.append(replica.role)
                    stop(**kwargs)

                sync.stop = stop_and_note
                try:
                    insert(leader)
                    assert caught_up(replica, leader)
                    with connect(replica_node.address) as client:
                        assert client.promote()["promoted"]
                    assert roles == ["replica"]
                    assert sync.stopped
                    assert not sync._thread.is_alive()
                    assert replica.role == "leader"
                    insert(replica, name="after-promote")
                    assert "<after-promote/>" in replica.text("d")
                finally:
                    stop()
