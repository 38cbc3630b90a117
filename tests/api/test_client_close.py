"""One close contract across the client surface: idempotent close,
context managers, and a typed ``protocol`` error on use-after-close —
for the sync, async and cluster clients alike."""

import asyncio

import pytest

from repro.api.client import AsyncStoreClient, StoreClient
from repro.cluster import ClusterClient
from repro.errors import ProtocolError
from repro.store import DocumentStore
from tests.cluster.harness import ServerThread

DOC = "<doc><items/></doc>"


def run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture()
def node(tmp_path):
    store = DocumentStore(workers=1, backend="serial")
    with ServerThread(store) as server:
        yield server


def connect(node):
    host, port = node.address.rsplit(":", 1)
    return StoreClient.connect(host=host, port=int(port))


class TestStoreClient:
    def test_close_is_idempotent_and_observable(self, node):
        client = connect(node)
        assert not client.closed
        client.close()
        client.close()                   # second close is a no-op
        assert client.closed

    def test_use_after_close_is_typed_not_a_crash(self, node):
        client = connect(node)
        client.close()
        with pytest.raises(ProtocolError) as info:
            client.docs()
        assert "closed" in str(info.value)

    def test_context_manager_closes(self, node):
        with connect(node) as client:
            client.open("d", DOC)
        assert client.closed

    def test_a_close_racing_a_call_fails_it_like_a_dropped_socket(
            self, node):
        """A replica sync is stopped by closing its client from another
        thread: the call in flight fails with the closed socket's
        ``OSError``, which the sync loop handles, never with an
        ``AttributeError`` that kills its thread."""
        client = connect(node)

        class ClosedMidResponse:
            def __init__(self, sock):
                self.sock = sock

            def sendall(self, data):
                self.sock.sendall(data)

            def recv(self, size):
                data = self.sock.recv(1)    # part of the response...
                client.close()              # ...then the other thread
                return data

            def close(self):
                self.sock.close()

        client._sock = ClosedMidResponse(client._sock)
        with pytest.raises(OSError):
            client.docs()
        assert client.closed


class TestAsyncStoreClient:
    def test_aclose_is_idempotent_and_observable(self, node):
        async def scenario():
            host, port = node.address.rsplit(":", 1)
            client = await AsyncStoreClient.connect(host=host,
                                                    port=int(port))
            assert not client.closed
            await client.aclose()
            await client.aclose()
            assert client.closed
            with pytest.raises(ProtocolError) as info:
                await client.docs()
            assert "closed" in str(info.value)
        run(scenario())

    def test_async_context_manager_closes(self, node):
        async def scenario():
            host, port = node.address.rsplit(":", 1)
            async with await AsyncStoreClient.connect(
                    host=host, port=int(port)) as client:
                await client.open("d", DOC)
            assert client.closed
        run(scenario())


class TestClusterClient:
    def test_close_is_idempotent_and_typed_after(self, node):
        client = ClusterClient([{"leader": node.address,
                                 "replicas": [node.address]}])
        client.open("d", DOC)
        assert not client.closed
        client.close()
        client.close()
        assert client.closed
        with pytest.raises(ProtocolError) as info:
            client.text("d")
        assert "closed" in str(info.value)
        with pytest.raises(ProtocolError):
            client.open("d2", DOC)

    def test_context_manager_closes(self, node):
        with ClusterClient([{"leader": node.address,
                             "replicas": [node.address]}]) as client:
            client.open("d", DOC)
        assert client.closed


class TestSubscribeSurface:
    """The subscription generators ride the same connections and obey
    the same close semantics."""

    @pytest.fixture()
    def feed_node(self, tmp_path):
        store = DocumentStore(workers=1, backend="serial",
                              durability="log",
                              wal_dir=str(tmp_path / "wal"))
        store.enable_replication()
        with ServerThread(store) as server:
            yield server

    def test_sync_generator_streams_pages(self, feed_node):
        with connect(feed_node) as client:
            anchor = client.subscribe_once()["token"]
            client.open("d", DOC)
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

    def test_async_iterator_streams_pages(self, feed_node):
        async def scenario():
            host, port = feed_node.address.rsplit(":", 1)
            async with await AsyncStoreClient.connect(
                    host=host, port=int(port)) as client:
                anchor = (await client.subscribe_once())["token"]
                await client.open("d", DOC)
                await client.submit_xquery(
                    "d", 'insert node <x/> as last into /doc/items')
                await client.flush("d")
                events = []
                async for event in client.subscribe(
                        from_token=anchor, wait_s=0.1):
                    events.append(event)
                    if len(events) == 2:
                        break
                assert [e["kind"] for e in events] == \
                    ["open", "batch"]
        run(scenario())

    def test_subscription_filters_and_decode_pass_through(
            self, feed_node):
        with connect(feed_node) as client:
            anchor = client.subscribe_once()["token"]
            client.open("a", DOC)
            client.open("b", DOC)
            page = client.subscribe_once(from_token=anchor,
                                         doc_ids=["b"], decode=False)
            assert len(page["events"]) == 1
            assert page["events"][0]["record"]["doc"]["doc_id"] == "b"

    def test_unsubscribe_clears_named_subscribers(self, feed_node):
        with connect(feed_node) as client:
            client.subscribe_once(subscriber="s1")
            assert client.unsubscribe("s1")["forgotten"]
            assert not client.unsubscribe("s1")["forgotten"]

    def test_cluster_subscribe_streams_from_the_shard_leader(
            self, feed_node):
        with connect(feed_node) as direct:
            anchor = direct.subscribe_once()["token"]
        with ClusterClient([{"leader": feed_node.address,
                             "replicas": [feed_node.address]}]) \
                as client:
            client.open("d", DOC)
            client.submit_xquery(
                "d", 'insert node <x/> as last into /doc/items')
            client.flush("d")
            events = []
            for event in client.subscribe(["d"], from_token=anchor,
                                          wait_s=0.1):
                events.append(event)
                if len(events) == 2:
                    break
            assert [e["kind"] for e in events] == ["open", "batch"]
            assert all(e["doc_id"] == "d" for e in events)

    def test_cluster_subscription_must_not_span_shards(self, feed_node):
        other_store = DocumentStore(workers=1, backend="serial")
        with ServerThread(other_store) as other:
            shards = [{"leader": feed_node.address,
                       "replicas": [feed_node.address]},
                      {"leader": other.address,
                       "replicas": [other.address]}]
            self._assert_spanning_refused(shards)

    def _assert_spanning_refused(self, shards):
        from repro.errors import ClusterError

        with ClusterClient(shards) as client:
            ring = client.ring
            # find two ids living on different shards
            by_shard = {}
            for index in range(64):
                doc_id = "doc{}".format(index)
                by_shard.setdefault(ring.lookup(doc_id), doc_id)
                if len(by_shard) == 2:
                    break
            assert len(by_shard) == 2
            with pytest.raises(ClusterError) as info:
                next(iter(client.subscribe(list(by_shard.values()))))
            assert "one subscription per shard" in str(info.value)
