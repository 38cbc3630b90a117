"""CDC end to end, over real sockets: a subscriber's WAL-less
:class:`ReplicaStore`, bootstrapped from ``export`` and fed raw
``subscribe`` pages by hand, stays byte-identical to the leader *and*
to the stateless baseline — across disconnects and resumes, and across
a leader failover (``promote``), where the epoch fence forces a typed
re-bootstrap."""

import time

import pytest

from repro.api.client import StoreClient
from repro.cluster import ReplicaStore, ReplicaSync, parse_address
from repro.errors import ResumeExpiredError
from repro.pul.serialize import pul_to_xml
from repro.store import DocumentStore, StatelessBaseline
from repro.workloads import generate_client_batches, generate_xmark
from repro.xdm.serializer import serialize
from tests.cluster.harness import ServerThread


def make_leader_store(tmp_path, name="leader-wal"):
    store = DocumentStore(workers=1, backend="serial",
                          durability="log", wal_dir=str(tmp_path / name))
    store.enable_replication()
    return store


def connect(node):
    host, port = parse_address(node.address)
    return StoreClient.connect(host=host, port=port)


def consumer():
    return ReplicaStore(workers=1, backend="serial")


def bootstrap(client, replica):
    """Install the leader's state from one ``export`` in state form;
    returns the token to stream from."""
    page = client.export(format="state")
    assert page["done"]
    replica.bootstrap(page["docs"], page["seq"], stream=page["stream"])
    return page["token"]


def drain(client, replica, token, **kwargs):
    """Poll raw pages until the feed is dry; returns the next token."""
    while True:
        page = client.subscribe_once(from_token=token, decode=False,
                                     **kwargs)
        replica.apply_records(page)
        token = page["token"]
        if not page["events"]:
            return token


def wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


@pytest.fixture()
def workload():
    document = generate_xmark(scale=0.01, seed=3)
    batches, expected = generate_client_batches(
        document, clients=3, rounds=4, ops_per_round=10, seed=1)
    return serialize(document), batches, serialize(expected)


class TestConsumerIdentity:
    def test_subscriber_matches_leader_and_baseline(self, tmp_path,
                                                    workload):
        text, batches, expected = workload
        baseline = StatelessBaseline(measure_parse=False)
        with make_leader_store(tmp_path) as store, \
                ServerThread(store) as node, connect(node) as client:
            subscriber = consumer()
            token = bootstrap(client, subscriber)
            client.open("d", text)
            baseline.open("d", text)
            for submissions in batches:
                for producer, pul in submissions:
                    client.submit("d", pul_to_xml(pul), client=producer)
                    baseline.submit("d", pul.copy(), client=producer)
                client.flush("d")
                baseline.flush("d")
                # drain after every flush: the subscriber tracks the
                # leader batch by batch, not only at the end
                token = drain(client, subscriber, token)
                assert subscriber.text("d") == baseline.text("d")
            assert subscriber.text("d") == client.text("d")["text"]
            assert subscriber.text("d") == expected

    def test_disconnect_and_resume_from_the_persisted_token(
            self, tmp_path, workload):
        text, batches, expected = workload
        with make_leader_store(tmp_path) as store, \
                ServerThread(store) as node:
            subscriber = consumer()
            with connect(node) as client:
                token = bootstrap(client, subscriber)
                client.open("d", text)
                for producer, pul in batches[0]:
                    client.submit("d", pul_to_xml(pul), client=producer)
                client.flush("d")
                token = drain(client, subscriber, token)
            # the subscriber process "dies"; only the token survives.
            # the leader keeps writing while nobody is listening
            with connect(node) as client:
                for submissions in batches[1:]:
                    for producer, pul in submissions:
                        client.submit("d", pul_to_xml(pul),
                                      client=producer)
                    client.flush("d")
            with connect(node) as client:
                drain(client, subscriber, token)
                assert subscriber.text("d") == client.text("d")["text"]
                assert subscriber.text("d") == expected

    def test_streaming_generator_surface(self, tmp_path):
        doc = "<doc><items/></doc>"
        with make_leader_store(tmp_path) as store, \
                ServerThread(store) as node, connect(node) as client:
            anchor = client.subscribe_once()["token"]
            client.open("d", doc)
            client.submit_xquery(
                "d", 'insert node <x/> as last into /doc/items')
            client.flush("d")
            events = []
            for event in client.subscribe(from_token=anchor,
                                          wait_s=0.1):
                events.append(event)
                if len(events) == 2:
                    break
            assert [e["kind"] for e in events] == ["open", "batch"]


class TestFailover:
    def test_promote_fences_tokens_and_rebootstrap_converges(
            self, tmp_path, workload):
        text, batches, expected = workload
        leader_store = make_leader_store(tmp_path)
        leader_node = ServerThread(leader_store).start()
        replica = ReplicaStore(leader_address=leader_node.address,
                               workers=1, backend="serial",
                               durability="log",
                               wal_dir=str(tmp_path / "replica-wal"))
        sync = ReplicaSync(replica, leader_node.address, "r1",
                           wait_s=0.2).start()
        subscriber = consumer()
        try:
            with ServerThread(replica) as replica_node:
                with connect(leader_node) as client:
                    token = bootstrap(client, subscriber)
                    client.open("d", text)
                    for producer, pul in batches[0]:
                        client.submit("d", pul_to_xml(pul),
                                      client=producer)
                    client.flush("d")
                    token = drain(client, subscriber, token)
                    leader_seq = leader_store.replication.next_seq
                assert wait_until(
                    lambda: replica.applied_seq == leader_seq)
                sync.stop()
                leader_node.stop()           # the leader is gone
                with connect(replica_node) as client:
                    client.promote()
                    # the old epoch's token is fenced, loudly
                    with pytest.raises(ResumeExpiredError):
                        client.subscribe_once(from_token=token)
                    # re-bootstrap: a state-form export carries the
                    # paired resume token of the new epoch
                    token = bootstrap(client, subscriber)
                    # the new leader keeps writing; the subscriber follows
                    baseline = StatelessBaseline(measure_parse=False)
                    baseline.open("d", text)
                    for submissions in batches:
                        for producer, pul in submissions:
                            baseline.submit("d", pul.copy(),
                                            client=producer)
                        baseline.flush("d")
                    for submissions in batches[1:]:
                        for producer, pul in submissions:
                            client.submit("d", pul_to_xml(pul),
                                          client=producer)
                        client.flush("d")
                    token = drain(client, subscriber, token)
                    assert subscriber.text("d") == client.text("d")["text"]
                    assert subscriber.text("d") == baseline.text("d")
                    assert subscriber.text("d") == expected
        finally:
            sync.stop()
            leader_node.stop()
