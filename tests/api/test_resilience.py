"""Transport resilience satellites: stale Unix sockets, connect
retries with backoff, and the typed ``not-leader`` error on the wire."""

import asyncio
import os
import socket
import threading
import time

import pytest

from repro.api import AsyncStoreClient, StoreClient, StoreServer
from repro.cluster import ReplicaStore
from repro.errors import (
    NotLeaderError,
    ProtocolError,
    ReproError,
    XMLSyntaxError,
)
from repro.store import DocumentStore
from repro.xdm import Document, Node

DOC = "<bib><paper><title>T1</title></paper></bib>"


def run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestStaleUnixSocket:
    def test_dead_socket_file_is_unlinked_on_bind(self, tmp_path):
        """Regression: a SIGKILLed server leaves its socket inode
        behind; the next bind used to fail with ``Address already in
        use``."""
        path = str(tmp_path / "store.sock")
        corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        corpse.bind(path)
        corpse.listen(1)
        # close WITHOUT unlinking: exactly what SIGKILL leaves behind
        corpse.close()
        assert os.path.exists(path)

        async def scenario():
            server = StoreServer(
                DocumentStore(),
                unix_path=path)
            async with server:
                client = await AsyncStoreClient.connect(unix_path=path)
                await client.open("d1", DOC)
                assert (await client.docs()) == {"docs": ["d1"]}
                await client.aclose()
        run(scenario())

    def test_live_socket_is_not_stolen(self, tmp_path):
        path = str(tmp_path / "store.sock")

        async def scenario():
            first = StoreServer(
                DocumentStore(),
                unix_path=path)
            async with first:
                second = StoreServer(
                    DocumentStore(),
                    unix_path=path)
                with pytest.raises(OSError):
                    await second.start()
                second.store.close()
                # the original server kept its socket and still serves
                client = await AsyncStoreClient.connect(unix_path=path)
                assert (await client.docs()) == {"docs": []}
                await client.aclose()
        run(scenario())

    def test_a_plain_file_is_never_deleted(self, tmp_path):
        path = str(tmp_path / "store.sock")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("precious")

        async def scenario():
            server = StoreServer(
                DocumentStore(),
                unix_path=path)
            with pytest.raises(OSError):
                await server.start()
            server.store.close()
        run(scenario())
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == "precious"


class TestConnectRetries:
    def _delayed_server(self, delay):
        """A listener that starts accepting only after ``delay``; the
        port is reserved up front so the first dials are refused."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = threading.Event()
        stop = threading.Event()

        def serve():
            time.sleep(delay)
            store = DocumentStore()

            async def main():
                server = StoreServer(store, host="127.0.0.1", port=port)
                await server.start()
                started.set()
                while not stop.is_set():
                    await asyncio.sleep(0.05)
                await server.aclose(drain=False)

            asyncio.run(main())

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        return port, started, stop, thread

    def test_blocking_connect_waits_out_a_bootstrap_race(self):
        port, started, stop, thread = self._delayed_server(0.4)
        try:
            with pytest.raises(ConnectionError):
                StoreClient.connect(host="127.0.0.1", port=port)
            with StoreClient.connect(host="127.0.0.1", port=port,
                                     retries=8, backoff=0.1) as client:
                assert client.protocol_version is not None
        finally:
            stop.set()
            thread.join(timeout=30)

    def test_async_connect_waits_out_a_bootstrap_race(self):
        port, started, stop, thread = self._delayed_server(0.4)
        try:
            async def scenario():
                with pytest.raises(ConnectionError):
                    await AsyncStoreClient.connect(host="127.0.0.1",
                                                   port=port)
                client = await AsyncStoreClient.connect(
                    host="127.0.0.1", port=port, retries=8, backoff=0.1)
                assert client.protocol_version is not None
                await client.aclose()
            run(scenario())
        finally:
            stop.set()
            thread.join(timeout=30)

    def test_exhausted_retries_reraise_the_refusal(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        start = time.monotonic()
        with pytest.raises(ConnectionError):
            StoreClient.connect(host="127.0.0.1", port=port,
                                retries=2, backoff=0.05)
        assert time.monotonic() - start >= 0.15   # 0.05 + 0.1 slept


class TestNotLeaderOnTheWire:
    def test_writes_answer_the_typed_redirect(self):
        async def scenario():
            replica = ReplicaStore(leader_address="10.0.0.9:4100")
            async with StoreServer(replica, host="127.0.0.1",
                                   port=0) as server:
                host, port = server.tcp_address
                client = await AsyncStoreClient.connect(host=host,
                                                        port=port)
                with pytest.raises(NotLeaderError) as excinfo:
                    await client.open("d1", DOC)
                assert excinfo.value.code == "not-leader"
                assert excinfo.value.leader == "10.0.0.9:4100"
                with pytest.raises(NotLeaderError):
                    await client.flush("d1")
                # the connection survives and serves reads
                assert (await client.docs()) == {"docs": []}
                stats = await client.stats()
                assert stats["replication"]["role"] == "replica"
                assert stats["replication"]["leader"] == "10.0.0.9:4100"
                await client.aclose()
        run(scenario())

    def test_not_leader_round_trips_through_the_registry(self):
        error = NotLeaderError("10.1.2.3:9", operation="flush")
        payload = error.to_dict()
        assert payload["code"] == "not-leader"
        assert payload["details"]["leader"] == "10.1.2.3:9"
        rebuilt = ReproError.from_dict(payload)
        assert isinstance(rebuilt, NotLeaderError)
        assert rebuilt.leader == "10.1.2.3:9"
        assert "10.1.2.3:9" in str(rebuilt)

    def test_replication_ops_on_a_plain_store_are_typed(self):
        async def scenario():
            async with StoreServer(
                    DocumentStore(),
                    host="127.0.0.1", port=0) as server:
                host, port = server.tcp_address
                client = await AsyncStoreClient.connect(host=host,
                                                        port=port)
                with pytest.raises(ReproError) as excinfo:
                    await client.subscribe_once(subscriber="r1")
                assert excinfo.value.code == "cluster"
                with pytest.raises(ReproError) as excinfo:
                    await client.unsubscribe("r1")
                assert excinfo.value.code == "cluster"
                # the state itself exports; there is just no feed to
                # anchor a follower at
                export = await client.export(format="state")
                assert export["token"] is None
                with pytest.raises(ProtocolError):
                    await client._call("unsubscribe")  # no subscriber
                await client.aclose()
        run(scenario())


class TestUnencodableContent:
    """One request must not poison a document for every later reader:
    character references no XML document may contain are refused at
    the door, and a result the codec cannot encode costs its reader an
    error response, not the connection."""

    def test_hostile_submit_is_refused_and_the_connection_lives(self):
        hostile = ('<pul><op name="insertInto" target="1">'
                   '<c>&#xD800;</c></op></pul>')

        async def scenario():
            server = StoreServer(
                DocumentStore(),
                host="127.0.0.1", port=0)
            async with server:
                client = await AsyncStoreClient.connect(
                    *server.tcp_address)
                await client.open("d1", DOC)
                with pytest.raises(XMLSyntaxError) as info:
                    await client.submit("d1", hostile)
                assert hostile[info.value.position] == "&"
                assert (await client.docs()) == {"docs": ["d1"]}
                assert (await client.text("d1"))["text"] == DOC
                await client.aclose()
        run(scenario())

    def test_unencodable_result_is_a_typed_error(self):
        """A document poisoned before the parser refused such
        references (replayed from an old log, say) must not kill its
        readers' connections either."""
        root = Node.element("a")
        root.append_child(Node.text("\ud800"))
        store = DocumentStore()
        store.open("poisoned", Document(root=root))

        async def scenario():
            async with StoreServer(store, host="127.0.0.1",
                                   port=0) as server:
                client = await AsyncStoreClient.connect(
                    *server.tcp_address)
                with pytest.raises(ProtocolError):
                    await client.text("poisoned")
                assert (await client.docs()) == {"docs": ["poisoned"]}
                await client.aclose()
        run(scenario())
