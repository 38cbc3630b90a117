"""The consistent-hash router and the live sync loop over real
sockets (in-process :class:`StoreServer` nodes)."""

import pytest

from repro.cluster import ClusterClient, HashRing, ReplicaStore, ReplicaSync
from repro.errors import ClusterError, NotLeaderError, ReproError
from repro.store import DocumentStore
from tests.cluster.harness import ServerThread, wait_until

DOC = "<doc><items/></doc>"


def make_leader_store(tmp_path, name):
    store = DocumentStore(workers=1, backend="serial", durability="log",
                          wal_dir=str(tmp_path / name))
    store.enable_replication()
    return store


class TestHashRing:
    def test_deterministic_and_total(self):
        ring = HashRing(["a", "b", "c"])
        again = HashRing(["a", "b", "c"])
        keys = ["doc-{}".format(index) for index in range(200)]
        assert [ring.lookup(k) for k in keys] == \
            [again.lookup(k) for k in keys]
        owners = {ring.lookup(k) for k in keys}
        assert owners == {"a", "b", "c"}   # every shard takes load

    def test_adding_a_shard_moves_only_its_arcs(self):
        before = HashRing(["a", "b", "c"])
        after = HashRing(["a", "b", "c", "d"])
        keys = ["doc-{}".format(index) for index in range(400)]
        moved = sum(1 for k in keys
                    if before.lookup(k) != after.lookup(k))
        gained = sum(1 for k in keys if after.lookup(k) == "d")
        assert moved == gained            # nothing reshuffles elsewhere
        assert 0 < gained < len(keys) / 2  # roughly 1/4, never a rehash

    def test_rejects_empty_and_duplicate_shards(self):
        with pytest.raises(ClusterError):
            HashRing([])
        with pytest.raises(ClusterError):
            HashRing(["a", "a"])


class TestRouting:
    def test_writes_partition_across_two_leader_shards(self, tmp_path):
        with ServerThread(make_leader_store(tmp_path, "s0")) as node0, \
                ServerThread(make_leader_store(tmp_path, "s1")) as node1:
            with ClusterClient([node0.address, node1.address],
                               client="router") as client:
                doc_ids = ["doc-{}".format(i) for i in range(12)]
                for doc_id in doc_ids:
                    client.open(doc_id, DOC)
                    client.submit_xquery(
                        doc_id,
                        'insert node <w/> as last into /doc/items')
                    client.flush(doc_id)
                # every document lives exactly on the shard the ring
                # names, and the union read sees them all
                assert client.docs()["docs"] == sorted(doc_ids)
                by_shard = {node0.address: node0.store.doc_ids(),
                            node1.address: node1.store.doc_ids()}
                for doc_id in doc_ids:
                    owner = client.shard_of(doc_id)
                    assert doc_id in by_shard[owner]
                    assert "<w/>" in client.text(doc_id)["text"]
                assert all(by_shard.values())   # both shards got load
                stats = client.stats()
                assert len(stats["stats"]) == len(doc_ids)

    def test_not_leader_redirect_updates_the_shard_table(self, tmp_path):
        """Point the router at the replica; the typed redirect must
        land the write on the real leader and rewrite the table."""
        leader_store = make_leader_store(tmp_path, "leader")
        with ServerThread(leader_store) as leader_node:
            replica = ReplicaStore(leader_address=leader_node.address,
                                   workers=1, backend="serial")
            with ServerThread(replica) as replica_node:
                sync = ReplicaSync(replica, leader_node.address, "r1",
                                   wait_s=0.2).start()
                try:
                    with ClusterClient(
                            [{"leader": replica_node.address,
                              "replicas": [replica_node.address]}],
                            client="router") as client:
                        client.open("d1", DOC)
                        shard = client._shards[client.ring.names[0]]
                        assert shard.leader == leader_node.address
                        client.submit_xquery(
                            "d1",
                            'insert node <via-redirect/> as last into '
                            '/doc/items')
                        flushed = client.flush("d1")
                        assert flushed["flushed"]
                        assert "<via-redirect/>" in \
                            leader_store.text("d1")
                finally:
                    sync.stop()

    def test_reads_fan_out_to_replicas_and_survive_leader_loss(
            self, tmp_path):
        leader_store = make_leader_store(tmp_path, "leader")
        leader_node = ServerThread(leader_store).start()
        replica = ReplicaStore(leader_address=leader_node.address,
                               workers=1, backend="serial")
        sync = ReplicaSync(replica, leader_node.address, "r1",
                           wait_s=0.2).start()
        with ServerThread(replica) as replica_node:
            try:
                with ClusterClient(
                        [{"leader": leader_node.address,
                          "replicas": [replica_node.address]}],
                        client="router") as client:
                    client.open("d1", DOC)
                    client.submit_xquery(
                        "d1", 'insert node <r/> as last into /doc/items')
                    client.flush("d1")
                    leader_seq = leader_store.replication.next_seq
                    assert wait_until(
                        lambda: replica.applied_seq == leader_seq)
                    assert client.text("d1")["text"] == \
                        leader_store.text("d1")
                    assert client.query("d1", "/doc/items/r")["count"] \
                        == 1
                    # the leader goes away: replica reads still answer
                    leader_node.stop()
                    assert client.text("d1")["text"] == \
                        replica.text("d1")
                    # a write has no reachable leader anywhere: typed
                    # failure, naming the shard
                    with pytest.raises((ClusterError, NotLeaderError)):
                        client.submit_xquery(
                            "d1",
                            'insert node <nope/> as last into '
                            '/doc/items')
            finally:
                sync.stop()

    def test_read_errors_propagate_from_replicas(self, tmp_path):
        """A command failure from a replica is the answer (fan-out only
        routes around *dead* nodes)."""
        leader_store = make_leader_store(tmp_path, "leader")
        with ServerThread(leader_store) as leader_node:
            replica = ReplicaStore(leader_address=leader_node.address,
                                   workers=1, backend="serial")
            with ServerThread(replica) as replica_node:
                sync = ReplicaSync(replica, leader_node.address, "r1",
                                   wait_s=0.2).start()
                try:
                    with ClusterClient(
                            [{"leader": leader_node.address,
                              "replicas": [replica_node.address]}],
                            client="router") as client:
                        with pytest.raises(ReproError):
                            client.text("ghost")
                finally:
                    sync.stop()


class TestSyncLoop:
    def test_sync_bootstraps_streams_and_reports_status(self, tmp_path):
        leader_store = make_leader_store(tmp_path, "leader")
        with ServerThread(leader_store) as leader_node:
            leader_store.open("d1", DOC)
            replica = ReplicaStore(leader_address=leader_node.address,
                                   workers=1, backend="serial",
                                   durability="log",
                                   wal_dir=str(tmp_path / "replica"))
            sync = ReplicaSync(replica, leader_node.address, "r1",
                               wait_s=0.2).start()
            try:
                for index in range(3):
                    leader_store.submit_xquery(
                        "d1", 'insert node <x n="{}"/> as last into '
                              '/doc/items'.format(index), client="c1")
                    leader_store.flush("d1")
                leader_seq = leader_store.replication.next_seq
                assert wait_until(
                    lambda: replica.applied_seq == leader_seq)
                assert replica.text("d1") == leader_store.text("d1")
                # "behind" fills in with the first subscribe answer
                # (a bootstrap alone can already satisfy catch-up)
                assert wait_until(
                    lambda: sync.status()["behind"] == 0)
                assert sync.status()["connected"]
                # the leader sees the subscriber's acked position
                assert wait_until(
                    lambda: leader_store.replication.stats()
                    ["subscribers"].get("r1", {}).get("lag") == 0)
            finally:
                sync.stop()
            assert sync.stopped

    def test_sync_rebootstraps_after_backlog_reset(self, tmp_path):
        leader_store = DocumentStore(workers=1, backend="serial",
                                     durability="log",
                                     wal_dir=str(tmp_path / "leader"))
        leader_store.enable_replication(backlog=2)
        with ServerThread(leader_store) as leader_node:
            leader_store.open("d1", DOC)
            replica = ReplicaStore(leader_address=leader_node.address,
                                   workers=1, backend="serial")
            sync = ReplicaSync(replica, leader_node.address, "r1",
                               wait_s=0.2).start()
            try:
                assert wait_until(lambda: "d1" in replica)
                # stop the pull, let the leader outrun the backlog
                sync.stop()
                for index in range(6):
                    leader_store.submit_xquery(
                        "d1", 'insert node <y n="{}"/> as last into '
                              '/doc/items'.format(index), client="c1")
                    leader_store.flush("d1")
                sync2 = ReplicaSync(replica, leader_node.address, "r1",
                                    wait_s=0.2).start()
                try:
                    leader_seq = leader_store.replication.next_seq
                    assert wait_until(
                        lambda: replica.applied_seq == leader_seq)
                    assert replica.text("d1") == leader_store.text("d1")
                finally:
                    sync2.stop()
            finally:
                sync.stop()

    def test_sync_survives_leader_restart_with_new_epoch(self, tmp_path):
        """A leader that dies and comes back renumbers its stream; the
        epoch check must force a re-bootstrap, never a silent splice."""
        wal = str(tmp_path / "leader")
        leader_store = DocumentStore(workers=1, backend="serial",
                                     durability="log", wal_dir=wal)
        leader_store.enable_replication()
        leader_node = ServerThread(leader_store).start()
        address = leader_node.address
        leader_store.open("d1", DOC)
        replica = ReplicaStore(leader_address=address, workers=1,
                               backend="serial")
        sync = ReplicaSync(replica, address, "r1", wait_s=0.2,
                           backoff=0.05).start()
        try:
            assert wait_until(lambda: "d1" in replica)
            old_stream = replica.stream_id
            leader_node.stop()
            # reincarnate on a fresh port with the same durable state
            restarted = DocumentStore(workers=1, backend="serial",
                                      durability="log", wal_dir=wal)
            restarted.enable_replication()
            with ServerThread(restarted) as reborn:
                sync.leader = reborn.address
                restarted.submit_xquery(
                    "d1", 'insert node <again/> as last into '
                          '/doc/items', client="c1")
                restarted.flush("d1")
                leader_seq = restarted.replication.next_seq
                assert wait_until(
                    lambda: replica.applied_seq == leader_seq
                    and replica.stream_id != old_stream)
                assert replica.text("d1") == restarted.text("d1")
        finally:
            sync.stop()
