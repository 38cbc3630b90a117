"""The asyncio :class:`StoreServer` with both client flavours.

Each test runs its own event loop (``asyncio.run``) with the server
and the async client on the same loop; the blocking client is driven
from an executor thread so its socket calls cannot starve the loop.
"""

import asyncio
import gc
import importlib.util
import os
import socket
import struct
import sys
import threading
import time

import pytest

from repro.api import AsyncStoreClient, StoreClient, StoreServer, protocol
from repro.api.server import INLINE_MAX_NODES
from repro.errors import (
    DurabilityError,
    ProtocolError,
    QuerySyntaxError,
    ReproError,
    WalPoisonedError,
)
from repro.obs import series_key
from repro.pul.ops import Rename, ReplaceValue
from repro.pul.pul import PUL
from repro.pul.serialize import pul_to_xml
from repro.store import DocumentStore
from repro.xdm.parser import parse_document
from repro.xquery.parser import MAX_CACHED_PATH_CHARS, MAX_PREDICATE_NESTING

DOC = "<bib><paper><title>T1</title></paper></bib>"


def run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_server(**store_kwargs):
    store_kwargs.setdefault("workers", 2)
    store_kwargs.setdefault("backend", "serial")
    return StoreServer(DocumentStore(**store_kwargs),
                       host="127.0.0.1", port=0)


def title_rename_pul(origin=None):
    document = parse_document(DOC)
    title = next(n for n in document.nodes()
                 if n.is_element and n.name == "title")
    return PUL([Rename(title.node_id, "headline")], origin=origin)


async def connect(server, **kwargs):
    host, port = server.tcp_address
    return await AsyncStoreClient.connect(host=host, port=port, **kwargs)


class TestSession:
    def test_full_session(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server, client="alice")
                assert client.protocol_version == \
                    protocol.PROTOCOL_VERSION
                opened = await client.open("d1", DOC)
                assert opened == {"doc_id": "d1", "nodes": 4,
                                  "version": 0}
                queued = await client.submit("d1", title_rename_pul())
                assert queued["depth"] == 1
                flushed = await client.flush("d1")
                assert flushed["flushed"] and flushed["version"] == 1
                assert flushed["relabel"] == "incremental"
                text = (await client.text("d1"))["text"]
                assert "<headline>T1</headline>" in text
                stats = await client.stats("d1")
                assert stats["stats"][0]["version"] == 1
                assert (await client.docs()) == {"docs": ["d1"]}
                assert (await client.discard("d1"))["discarded"] == 0
                idle = await client.flush("d1")
                assert idle == {"doc_id": "d1", "flushed": False}
                await client.aclose()
        run(scenario())

    def test_flush_all_and_idle_stats(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server, client="alice")
                assert (await client.stats())["stats"] == []
                await client.open("d1", DOC)
                await client.open("d2", DOC)
                assert (await client.flush_all())["batches"] == 0
                await client.submit("d2", title_rename_pul())
                flushed = await client.flush_all()
                assert flushed["batches"] == 1 and flushed["ops"] == 1
                assert [r["version"] for r in flushed["results"]] == [1]
                await client.aclose()
        run(scenario())

    def test_text_travels_verbatim(self):
        """Newlines and non-ASCII text need no escaping on this
        transport: they come back exactly as opened."""
        text = "<a>line1\nline2 caf\u00e9 \U0001f600</a>"

        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                await client.open("d1", text)
                assert (await client.text("d1"))["text"] == text
                await client.aclose()
        run(scenario())

    def test_submit_accepts_pul_objects_and_text(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                await client.open("d1", DOC)
                await client.submit("d1", title_rename_pul())
                await client.submit("d1",
                                    pul_to_xml(title_rename_pul()))
                assert (await client.stats("d1")
                        )["stats"][0]["pending"] == 2
                await client.aclose()
        run(scenario())

    def test_xquery_submission_compiles_server_side(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server, client="alice")
                await client.open("d1", DOC)
                queued = await client.submit_xquery(
                    "d1", 'rename node /bib/paper/title as "headline"')
                assert queued == {"doc_id": "d1", "ops": 1, "depth": 1}
                await client.flush("d1")
                text = (await client.text("d1"))["text"]
                assert "<headline>" in text
                await client.aclose()
        run(scenario())

    def test_pipelined_requests_execute_in_order(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server, client="alice")
                await client.open("d1", DOC)
                results = await asyncio.gather(*[
                    client.submit_xquery(
                        "d1",
                        'insert node <x/> as last into /bib/paper')
                    for __ in range(8)])
                assert sorted(r["depth"] for r in results) == \
                    list(range(1, 9))
                flushed = await client.flush("d1")
                assert flushed["version"] == 1
                await client.aclose()
        run(scenario())

    def test_unix_socket_transport(self, tmp_path):
        path = str(tmp_path / "store.sock")

        async def scenario():
            server = StoreServer(
                DocumentStore(workers=2, backend="serial"),
                unix_path=path)
            async with server:
                client = await AsyncStoreClient.connect(unix_path=path)
                await client.open("d1", DOC)
                assert (await client.docs()) == {"docs": ["d1"]}
                await client.aclose()
        run(scenario())

    def test_sync_client_same_surface_from_a_thread(self):
        async def scenario():
            async with make_server() as server:
                host, port = server.tcp_address

                def blocking_session():
                    with StoreClient.connect(host=host, port=port,
                                             client="bob") as client:
                        assert client.protocol_version == \
                            protocol.PROTOCOL_VERSION
                        client.open("d1", DOC)
                        client.submit_xquery(
                            "d1",
                            'rename node /bib/paper/title as "h"')
                        flushed = client.flush("d1")
                        assert flushed["version"] == 1
                        with pytest.raises(ReproError):
                            client.flush("ghost")
                        return client.text("d1")["text"]

                loop = asyncio.get_running_loop()
                text = await loop.run_in_executor(None,
                                                  blocking_session)
                assert "<h>T1</h>" in text
        run(scenario())


class TestClientIdentity:
    def test_session_identity_feeds_per_client_coalescing(self):
        """Two renames of one node are a sequential chain from one
        client (aggregated fine) but an incompatible parallel union
        from two clients — the connection's hello identity must be
        what the store coalesces on."""
        async def same_client():
            async with make_server() as server:
                first = await connect(server, client="alice")
                second = await connect(server, client="alice")
                await first.open("d1", DOC)
                await first.submit_xquery(
                    "d1", 'rename node /bib/paper/title as "a"')
                await second.submit_xquery(
                    "d1", 'rename node /bib/paper/title as "b"')
                flushed = await first.flush("d1")
                await first.aclose()
                await second.aclose()
                return flushed

        flushed = run(same_client())
        assert flushed["clients"] == 1 and flushed["flushed"]

        async def two_clients():
            async with make_server() as server:
                first = await connect(server, client="alice")
                second = await connect(server, client="bob")
                await first.open("d1", DOC)
                await first.submit_xquery(
                    "d1", 'rename node /bib/paper/title as "a"')
                await second.submit_xquery(
                    "d1", 'rename node /bib/paper/title as "b"')
                with pytest.raises(ReproError):
                    await first.flush("d1")
                await first.aclose()
                await second.aclose()
        run(two_clients())

    def test_anonymous_connections_get_distinct_identities(self):
        async def scenario():
            async with make_server() as server:
                first = await connect(server)
                second = await connect(server)
                assert first.client != second.client
                await first.aclose()
                await second.aclose()
        run(scenario())


class TestErrors:
    def test_remote_errors_reconstruct_their_subclass(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                with pytest.raises(ReproError) as excinfo:
                    await client.flush("ghost")
                assert excinfo.value.code == "repro"
                await client.open("d1", DOC)
                with pytest.raises(QuerySyntaxError):
                    await client.submit_xquery("d1", "delete delete")
                with pytest.raises(ReproError):
                    await client.open("d1", DOC)      # already resident
                with pytest.raises(DurabilityError,
                                   match="not durable") as excinfo:
                    await client.snapshot()
                assert excinfo.value.code == "durability"
                # the connection survived all of it
                assert (await client.docs()) == {"docs": ["d1"]}
                await client.aclose()
        run(scenario())

    def test_unknown_op_and_bad_args_are_protocol_errors(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                with pytest.raises(ProtocolError):
                    await client._call("frobnicate")
                with pytest.raises(ProtocolError):
                    await client._call("flush")        # missing doc_id
                with pytest.raises(ProtocolError):
                    await client._call("docs", extra=1)
                # garbage argument *types* answer an error, never kill
                # the connection
                with pytest.raises(ReproError):
                    await client._call("open", doc_id=["x"], xml=DOC)
                assert (await client.docs()) == {"docs": []}
                await client.aclose()
        run(scenario())

    def test_discard_unwedges_a_rejected_batch(self):
        """Two clients replacing one value is a conflict the flush
        rejects, every time, with the queue intact; ``discard`` is the
        way out."""
        document = parse_document(DOC)
        victim = next(n.node_id for n in document.nodes() if n.is_text)

        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                await client.open("d1", DOC)
                for name in ("alice", "bob"):
                    await client.submit(
                        "d1", PUL([ReplaceValue(victim, "from-" + name)]),
                        client=name)
                for __ in range(2):
                    with pytest.raises(ReproError):
                        await client.flush("d1")
                assert (await client.discard("d1")) == \
                    {"doc_id": "d1", "discarded": 2}
                assert (await client.flush("d1"))["flushed"] is False
                assert (await client.text("d1"))["text"] == DOC
                await client.aclose()
        run(scenario())

    def test_busy_compaction_is_not_reported_as_non_durable(
            self, tmp_path):
        async def scenario():
            store = DocumentStore(workers=2, backend="serial",
                                  durability="log",
                                  wal_dir=str(tmp_path / "wal"))
            async with StoreServer(store, host="127.0.0.1",
                                   port=0) as server:
                client = await connect(server)
                store._compacting.acquire()
                try:
                    with pytest.raises(DurabilityError,
                                       match="snapshot skipped.*retry"):
                        await client.snapshot()
                finally:
                    store._compacting.release()
                assert (await client.snapshot()) == {"generation": 0}
                await client.aclose()
        run(scenario())

    def test_wal_poisoned_store_answers_the_stable_code(self, tmp_path):
        """Regression (PR 4): flushing against a poisoned write-ahead
        log must answer the ``wal-poisoned`` error code over the wire,
        not tear the connection down with a traceback."""
        async def scenario():
            store = DocumentStore(workers=2, backend="serial",
                                  durability="log",
                                  wal_dir=str(tmp_path / "wal"))
            async with StoreServer(store, host="127.0.0.1",
                                   port=0) as server:
                client = await connect(server, client="alice")
                await client.open("d1", DOC)
                await client.submit("d1", title_rename_pul())
                store._durability._writer._broken = True
                with pytest.raises(WalPoisonedError) as excinfo:
                    await client.flush("d1")
                assert excinfo.value.code == "wal-poisoned"
                # the store rejected the batch but kept the queue and
                # the session: the connection still answers
                stats = await client.stats("d1")
                assert stats["stats"][0]["pending"] == 1
                await client.discard("d1")
                await client.aclose()
        run(scenario())


class TestMalformedStreams:
    async def _raw_connection(self, server):
        host, port = server.tcp_address
        return await asyncio.open_connection(host, port)

    def test_garbage_bytes_kill_only_that_connection(self):
        async def scenario():
            async with make_server() as server:
                healthy = await connect(server)
                reader, writer = await self._raw_connection(server)
                writer.write(b"\xff" * 64)
                await writer.drain()
                response = await reader.read(4096)
                # best-effort error frame, then EOF
                if response:
                    decoder = protocol.FrameDecoder()
                    (message,) = decoder.feed(response)
                    assert message["ok"] is False
                    assert message["error"]["code"] == "protocol"
                assert await reader.read(4096) == b""
                writer.close()
                # the store and the healthy session are unharmed
                await healthy.open("d1", DOC)
                assert (await healthy.docs()) == {"docs": ["d1"]}
                await healthy.aclose()
        run(scenario())

    def test_oversized_header_is_refused_without_buffering(self):
        async def scenario():
            async with make_server() as server:
                reader, writer = await self._raw_connection(server)
                writer.write(struct.pack(">I", protocol.MAX_FRAME + 1))
                await writer.drain()
                data = await reader.read(4096)
                if data:
                    assert await reader.read(4096) == b""
                writer.close()
        run(scenario())

    def test_torn_frame_at_eof_is_survived(self):
        async def scenario():
            async with make_server() as server:
                reader, writer = await self._raw_connection(server)
                frame = protocol.encode_frame(
                    protocol.hello_request(1))
                writer.write(frame[:len(frame) - 3])
                writer.close()
                await reader.read(4096)
                # a fresh connection still negotiates
                client = await connect(server)
                assert (await client.docs()) == {"docs": []}
                await client.aclose()
        run(scenario())

    def test_first_request_must_be_hello(self):
        async def scenario():
            async with make_server() as server:
                reader, writer = await self._raw_connection(server)
                writer.write(protocol.encode_frame(
                    protocol.request(1, "docs")))
                await writer.drain()
                decoder = protocol.FrameDecoder()
                data = await reader.read(4096)
                (message,) = decoder.feed(data)
                assert message["ok"] is False
                assert message["error"]["code"] == "protocol"
                assert await reader.read(4096) == b""
                writer.close()
        run(scenario())

    def test_version_mismatch_is_refused(self):
        async def scenario():
            async with make_server() as server:
                reader, writer = await self._raw_connection(server)
                writer.write(protocol.encode_frame(
                    protocol.request(1, "hello", {"versions": [99]})))
                await writer.drain()
                decoder = protocol.FrameDecoder()
                (message,) = decoder.feed(await reader.read(4096))
                assert message["ok"] is False
                assert "version" in message["error"]["message"]
                writer.close()
        run(scenario())


    @pytest.mark.parametrize("codec", ["json", "v2", "v2-maps"])
    def test_hostile_nesting_gets_a_typed_answer(self, codec):
        """A frame nested past the interpreter's stack — list headers
        under v2, ``[[[[`` in the JSON hello — is one more malformed
        term: the requests pipelined ahead of it are answered, then
        comes the ``protocol`` error frame, and the server serves the
        next connection. No task dies of a ``RecursionError``."""
        depth = 100_000
        unretrieved = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unretrieved.append(context))
            async with make_server() as server:
                reader, writer = await self._raw_connection(server)
                decoder = protocol.FrameDecoder()
                answers = []
                if codec == "json":
                    hostile = b"[" * depth + b"]" * depth
                else:
                    writer.write(protocol.encode_frame(
                        protocol.hello_request(0)))
                    answers.extend(decoder.feed(await reader.read(4096)))
                    decoder.use_version(2)
                    for number in (1, 2, 3):
                        writer.write(protocol.encode_frame(
                            protocol.request(number, "docs"), 2))
                    level = (b"\x06\x00\x00\x00\x01" if codec == "v2"
                             else b"\x07\x00\x00\x00\x01"
                                  b"\x00\x00\x00\x01k")
                    hostile = b"\x02\x00" + level * depth + b"\x00"
                writer.write(struct.pack(">I", len(hostile)) + hostile)
                await writer.drain()
                while True:
                    data = await reader.read(64 * 1024)
                    if not data:
                        break
                    answers.extend(decoder.feed(data))
                writer.close()
                *answered, refusal = answers
                assert [a["id"] for a in answered] == \
                    ([] if codec == "json" else [0, 1, 2, 3])
                assert all(a["ok"] for a in answered)
                assert refusal["ok"] is False and refusal["id"] is None
                assert refusal["error"]["code"] == "protocol"
                client = await connect(server)
                assert (await client.docs()) == {"docs": []}
                await client.aclose()
            gc.collect()

        run(scenario())
        assert unretrieved == []

    def test_requests_in_one_write_with_a_bad_header_are_answered(self):
        """Three pipelined requests and a malformed header in a single
        ``write`` reach the server in one read: the requests are
        answered first, then comes the ``protocol`` error frame."""
        async def scenario():
            async with make_server() as server:
                reader, writer = await self._raw_connection(server)
                decoder = protocol.FrameDecoder()
                writer.write(protocol.encode_frame(
                    protocol.hello_request(0)))
                (hello,) = decoder.feed(await reader.read(4096))
                assert hello["ok"]
                decoder.use_version(2)
                writer.write(b"".join(
                    protocol.encode_frame(protocol.request(n, "docs"), 2)
                    for n in (1, 2, 3)) + struct.pack(">I", 0))
                await writer.drain()
                answers = []
                while True:
                    data = await reader.read(64 * 1024)
                    if not data:
                        break
                    answers.extend(decoder.feed(data))
                writer.close()
                *answered, refusal = answers
                assert [a["id"] for a in answered] == [1, 2, 3]
                assert all(a["ok"] for a in answered)
                assert refusal["ok"] is False and refusal["id"] is None
                assert refusal["error"]["code"] == "protocol"
        run(scenario())

    def test_hostile_response_fails_the_call_typed(self):
        """The same frame from a hostile *server*: the waiting call
        gets a ``ProtocolError``, not a dead reader task."""
        hostile = b"\x02\x00" + b"\x06\x00\x00\x00\x01" * 100_000 \
            + b"\x00"

        async def hostile_server(reader, writer):
            (hello,) = protocol.FrameDecoder().feed(
                await reader.read(4096))
            writer.write(protocol.encode_frame(protocol.ok_response(
                hello["id"], {"version": 2})))
            await reader.read(4096)               # the docs request
            writer.write(struct.pack(">I", len(hostile)) + hostile)
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(hostile_server,
                                                "127.0.0.1", 0)
            async with server:
                host, port = server.sockets[0].getsockname()[:2]
                client = await AsyncStoreClient.connect(host=host,
                                                        port=port)
                with pytest.raises(ProtocolError, match="nests deeper"):
                    await client.docs()
                await client.aclose()

                def blocking():
                    with StoreClient.connect(host=host,
                                             port=port) as sync_client:
                        with pytest.raises(ProtocolError,
                                           match="nests deeper"):
                            sync_client.docs()

                await asyncio.get_running_loop().run_in_executor(
                    None, blocking)
        run(scenario())


class TestShutdown:
    def test_aclose_drains_pending_submissions(self, tmp_path):
        """Server-side drain-first shutdown: queued-but-unflushed
        submissions reach the write-ahead log before the store
        closes (the PR 3 semantics on the network transport)."""
        wal_dir = str(tmp_path / "wal")

        async def scenario():
            store = DocumentStore(workers=2, backend="serial",
                                  durability="log", wal_dir=wal_dir)
            server = StoreServer(store, host="127.0.0.1", port=0)
            await server.start()
            client = await connect(server, client="alice")
            await client.open("d1", DOC)
            await client.submit_xquery(
                "d1", 'rename node /bib/paper/title as "headline"')
            await client.aclose()
            await server.aclose()   # no explicit flush anywhere

        run(scenario())
        with DocumentStore(backend="serial", durability="log",
                           wal_dir=wal_dir) as recovered:
            assert recovered.version("d1") == 1
            assert "<headline>T1</headline>" in recovered.text("d1")

    def test_aclose_survives_a_silent_pre_hello_connection(self):
        """Regression: a connection that never sends its hello used to
        park ``aclose`` forever (the handler blocked in the negotiation
        read, and shutdown only cancelled the post-hello reader)."""
        async def scenario():
            server = make_server()
            await server.start()
            host, port = server.tcp_address
            reader, writer = await asyncio.open_connection(host, port)
            try:
                await asyncio.wait_for(server.aclose(), 15)
            finally:
                writer.close()
        run(scenario())

    def test_oversized_result_degrades_to_an_error_response(
            self, monkeypatch):
        """Regression: a result too large to frame must answer a
        ``protocol`` error, not kill the connection with an unhandled
        exception."""
        from repro.api import protocol as protocol_module

        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                await client.open("d1", "<a>{}</a>".format("x" * 400))
                monkeypatch.setattr(protocol_module, "MAX_FRAME", 256)
                with pytest.raises(ProtocolError):
                    await client.text("d1")
                # the connection survived and still answers
                assert (await client.docs()) == {"docs": ["d1"]}
                await client.aclose()
        run(scenario())

    def test_max_pipeline_must_be_positive(self):
        with DocumentStore(backend="serial") as store:
            with pytest.raises(ReproError):
                StoreServer(store, host="127.0.0.1", port=0,
                            max_pipeline=0)

    def test_queued_pipeline_finishes_before_close(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server, client="alice")
                await client.open("d1", DOC)
                futures = [asyncio.ensure_future(client.submit_xquery(
                    "d1", 'insert node <x/> as last into /bib/paper'))
                    for __ in range(6)]
                results = await asyncio.gather(*futures)
                assert len(results) == 6
                await client.aclose()
        run(scenario())


def _counter(server, name, **labels):
    return server.store.metrics_snapshot()["counters"].get(
        series_key(name, labels), 0)


def _routes(server):
    return {route: _counter(server, "repro_server_requests_total",
                            route=route) for route in ("loop", "pool")}


class TestReadRoutes:
    """Small lock-free reads run on the event loop, everything else on
    the pool — with one order per connection and the same answers."""

    WIDE = "<bib>{}<paper><title>T1</title></paper></bib>".format(
        "<p/>" * INLINE_MAX_NODES)

    @staticmethod
    async def _one_write(server, requests):
        """Send ``requests`` (``(op, args)`` pairs) as one write on a
        fresh connection; ``(answers in arrival order, route delta)``."""
        before = _routes(server)
        host, port = server.tcp_address
        reader, writer = await asyncio.open_connection(host, port)
        decoder = protocol.FrameDecoder()
        writer.write(protocol.encode_frame(protocol.hello_request(0)))
        (hello,) = decoder.feed(await reader.read(4096))
        assert hello["ok"]
        decoder.use_version(2)
        writer.write(b"".join(
            protocol.encode_frame(protocol.request(number, op, args), 2)
            for number, (op, args) in enumerate(requests, 1)))
        await writer.drain()
        answers = []
        while len(answers) < len(requests):
            answers.extend(decoder.feed(await reader.read(64 * 1024)))
        writer.close()
        assert [a["id"] for a in answers] == \
            list(range(1, len(requests) + 1))
        routes = _routes(server)
        return answers, {route: routes[route] - before[route]
                         for route in routes}

    @pytest.mark.parametrize("text", [DOC, WIDE],
                             ids=["small", "above-limit"])
    def test_pipelined_reads_see_the_flush_queued_ahead_of_them(
            self, text):
        """``submit_xquery; flush; query; text`` in one write: the two
        reads never overtake their own connection's queued pool ops —
        they join that hop, whatever the document's size."""
        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                await client.open("d1", text)
                await client.aclose()
                answers, routes = await self._one_write(server, [
                    ("submit_xquery", {
                        "doc_id": "d1",
                        "query": "insert node <fresh/> as last "
                                 "into /bib/paper"}),
                    ("flush", {"doc_id": "d1"}),
                    ("query", {"doc_id": "d1", "path": "//fresh"}),
                    ("text", {"doc_id": "d1"})])
                assert all(a["ok"] for a in answers)
                __, flushed, queried, read = (
                    a["result"] for a in answers)
                assert flushed["version"] == 1
                assert (queried["version"], queried["nodes"]) == \
                    (1, ["<fresh/>"])
                assert read["version"] == 1
                assert "<fresh/></paper>" in read["text"]
                assert routes == {"loop": 0, "pool": 4}
        run(scenario())

    def test_the_route_is_decided_when_the_read_runs(self):
        """The document a read will find may be made by the requests
        queued ahead of it: ``open(above the limit); query; text`` in
        one write plans the reads while the document is absent, and
        a queued flush can grow a small one past the limit — none of
        those reads may run on the loop."""
        grow = "insert nodes ({}) as last into /bib".format(
            ", ".join(["<p/>"] * INLINE_MAX_NODES))

        async def scenario():
            async with make_server() as server:
                answers, routes = await self._one_write(server, [
                    ("open", {"doc_id": "d1", "xml": self.WIDE}),
                    ("query", {"doc_id": "d1", "path": "//*//*//*"}),
                    ("text", {"doc_id": "d1"})])
                assert all(a["ok"] for a in answers)
                assert routes == {"loop": 0, "pool": 3}
                # once nothing is queued ahead, size decides
                answers, routes = await self._one_write(server, [
                    ("query", {"doc_id": "d1", "path": "//title"})])
                assert routes == {"loop": 0, "pool": 1}

                client = await connect(server)
                await client.open("d2", DOC)
                await client.aclose()
                answers, routes = await self._one_write(server, [
                    ("query", {"doc_id": "d2", "path": "//title"}),
                    ("submit_xquery", {"doc_id": "d2", "query": grow}),
                    ("flush", {"doc_id": "d2"}),
                    ("query", {"doc_id": "d2", "path": "//p"}),
                    ("text", {"doc_id": "d2"})])
                assert all(a["ok"] for a in answers)
                assert answers[3]["result"]["count"] == INLINE_MAX_NODES
                assert routes == {"loop": 1, "pool": 4}
                # and the flush has grown d2 past the limit for good
                answers, routes = await self._one_write(server, [
                    ("text", {"doc_id": "d2"})])
                assert routes == {"loop": 0, "pool": 1}
        run(scenario())

    def test_the_gate_reads_nodes_and_path_length(self):
        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                await client.open("small", DOC)
                await client.open("wide", self.WIDE)
                fits = server._fits_the_loop
                assert fits("small") and not fits("wide")
                # absent: a queued ``open`` may bring anything
                assert not fits("ghost") and not fits(["small"])
                before = _routes(server)
                at_bound = "/" + "t" * (MAX_CACHED_PATH_CHARS - 1)
                await client.query("small", at_bound)
                await client.explain("small", at_bound)
                assert _routes(server) == {
                    "loop": before["loop"] + 2, "pool": before["pool"]}
                before = _routes(server)
                await client.query("small", at_bound + "t")
                await client.explain("small", at_bound + "t")
                await client.query("wide", "//title")
                # every op that can wait on a lock stays on the pool
                before["pool"] += 3
                await client.docs()
                await client.stats()
                await client.stats("small")
                assert _routes(server) == {
                    "loop": before["loop"], "pool": before["pool"] + 3}
                with pytest.raises(ReproError, match="no resident"):
                    await client.query("ghost", "//title")
                with pytest.raises(ProtocolError):
                    await client._call("query", doc_id="small", path=7)
                await client.aclose()
        run(scenario())

    @pytest.mark.parametrize("levels", [100, 400])
    def test_hostile_predicate_nesting_is_refused_typed(self, levels):
        """100 levels used to overflow the planner's plan record, 330
        the parser itself: code ``repro`` "maximum recursion depth
        exceeded" over the wire. Now every surface answers the syntax
        error, with the offset of the first bracket too many."""
        nested = "/bib" + "[paper" * levels + "]" * levels
        offending = len("/bib") + len("[paper") * MAX_PREDICATE_NESTING

        async def scenario():
            async with make_server() as server:
                client = await connect(server)
                await client.open("d1", DOC)
                for call in (client.query, client.explain):
                    with pytest.raises(QuerySyntaxError) as excinfo:
                        await call("d1", nested)
                    assert excinfo.value.position == offending
                prefix = "delete nodes "
                with pytest.raises(QuerySyntaxError) as excinfo:
                    await client.submit_xquery("d1", prefix + nested)
                assert excinfo.value.position == len(prefix) + offending
                # the same connection still serves
                assert (await client.docs()) == {"docs": ["d1"]}
                await client.aclose()
        run(scenario())

    def test_a_traced_read_on_the_loop_records_spans_and_slow_log(self):
        async def scenario():
            async with make_server(slow_query_s=0.0) as server:
                client = await connect(server)
                await client.open("d1", DOC)
                before = _routes(server)
                answer = await client.query("d1", "//title",
                                            _trace="feedbead000000aa")
                assert answer["count"] == 1
                assert _routes(server)["loop"] == before["loop"] + 1
                (trace,) = server.store.obs.tracer.recent()
                assert (trace["trace_id"], trace["op"]) == \
                    ("feedbead000000aa", "query")
                assert [child["name"] for child
                        in trace["spans"]["children"]] == ["query"]
                (entry,) = server.store.obs.slowlog.recent()
                assert entry["trace_id"] == "feedbead000000aa"
                assert entry["path"] == "//title"
                assert entry["plan"]["mode"] == "indexed"
                await client.aclose()
        run(scenario())

    def test_a_pipelined_run_of_reads_yields_the_loop(self):
        """Reads at the size limit, pipelined 24 deep on one
        connection, may not hold the loop for the sum of their costs:
        past one interpreter switch interval the batch yields, so
        another connection's request is served in between."""
        async def scenario():
            async with make_server() as server:
                server._loop_slice_s = 0.0     # yield after every read
                hog = await connect(server)
                other = await connect(server)
                await hog.open("d1", DOC)
                order = []

                async def tagged(tag, call):
                    await call
                    order.append(tag)

                reads = [tagged("hog", hog.query("d1", "//title"))
                         for __ in range(24)]
                await asyncio.gather(
                    *reads, tagged("other", other.text("d1")))
                assert order.index("other") < len(order) - 1
                await hog.aclose()
                await other.aclose()
        run(scenario())

    def test_a_connection_that_held_the_loop_lets_the_others_go_first(
            self):
        """A turn that held the loop for a switch interval hands the
        loop to the connections that became ready meanwhile before its
        own connection's next request runs. epoll reports the socket
        just read ahead of the others, so without the hand-over a
        connection looping at-limit reads answered its next one ahead
        of a cheap read that arrived during the last."""
        async def scenario():
            async with make_server() as server:
                hog = await connect(server)
                other = await connect(server)
                await hog.open("d1", DOC)
                await other.query("d1", "//title")
                server._loop_slice_s = 0.0     # every turn holds a slice
                await hog.query("d1", "//title")
                before = _routes(server)
                order = []

                async def tagged(tag, call):
                    await call
                    order.append(tag)

                await asyncio.gather(
                    tagged("hog", hog.query("d1", "//title")),
                    tagged("other", other.text("d1")))
                assert order == ["other", "hog"]
                assert _routes(server) == {"loop": before["loop"] + 2,
                                           "pool": before["pool"]}
                await hog.aclose()
                await other.aclose()
        run(scenario())


async def _hello(server, sock=None):
    """A raw connection past its hello; ``(reader, writer)``."""
    if sock is None:
        reader, writer = await asyncio.open_connection(*server.tcp_address)
    else:
        reader, writer = await asyncio.open_connection(sock=sock)
    writer.write(protocol.encode_frame(protocol.hello_request(0)))
    header = await reader.readexactly(protocol.HEADER_SIZE)
    (length,) = struct.unpack(">I", header)
    (hello,) = protocol.FrameDecoder().feed(
        header + await reader.readexactly(length))
    assert hello["ok"]
    return reader, writer


async def _settled(read, quiet_s=0.3, timeout_s=20.0):
    """``read()`` once it has stopped changing for ``quiet_s``."""
    value = read()
    quiet_since = time.monotonic()
    deadline = quiet_since + timeout_s
    while time.monotonic() < deadline:
        await asyncio.sleep(0.02)
        now = read()
        if now != value:
            value, quiet_since = now, time.monotonic()
        elif time.monotonic() - quiet_since >= quiet_s:
            break
    return value


async def _answers(reader, count):
    decoder = protocol.FrameDecoder(version=2)
    answers = []
    while len(answers) < count:
        data = await reader.read(1 << 20)
        assert data, "connection closed after {} answers".format(
            len(answers))
        answers.extend(decoder.feed(data))
    return answers


def _write_buffers(server):
    """Bytes each connection's transport holds beyond the kernel's
    socket buffer."""
    return [connection.transport.get_write_buffer_size()
            for connection in server._connections]


class TestBackpressure:
    """Neither direction buffers without bound. A client that writes
    requests and never reads makes the server stop reading; one that
    never reads its answers makes it stop executing. Once the client
    reads again, every answer arrives, in order."""

    PIPELINE = 4

    #: the largest read either transport makes (asyncio's protocol
    #: transports read 256 KiB; stream readers were fed 64 KiB); a
    #: request larger than it makes "one read's frames" at most two:
    #: the end of one and the start of the next
    READ = 256 * 1024

    def _server(self):
        return StoreServer(DocumentStore(workers=1, backend="serial"),
                           host="127.0.0.1", port=0,
                           max_pipeline=self.PIPELINE)

    def test_a_client_that_never_reads_stops_the_server_reading(self):
        gate = threading.Event()
        total = 10 * self.PIPELINE
        padding = "x" * (self.READ + 1024)

        def held_stats(**kwargs):
            gate.wait(30)
            return {"held": True}

        async def scenario():
            async with self._server() as server:
                server.dispatcher.stats = held_stats
                reader, writer = await _hello(server)
                writer.write(b"".join(
                    protocol.encode_frame(protocol.request(
                        number, "stats", {"doc_id": padding}), 2)
                    for number in range(1, total + 1)))
                try:
                    # requests decoded while none can be answered (the
                    # counter's first frame is the hello)
                    decoded = await _settled(lambda: _counter(
                        server, "repro_server_frames_in_total")) - 1
                finally:
                    gate.set()
                answers = await _answers(reader, total)
                writer.close()
                return decoded, answers

        decoded, answers = run(scenario())
        # the server stopped reading while nothing could be answered:
        # the pipeline, the request in the hop and one read's frames
        # (measured: 6 with a stream reader feeding a queue, 5 with
        # the protocol pausing its transport)
        assert decoded <= self.PIPELINE + 1 + 2 < total
        assert [a["id"] for a in answers] == list(range(1, total + 1))
        assert all(a["result"] == {"held": True} for a in answers)

    def test_a_client_that_never_reads_its_answers_stops_execution(self):
        text = "<a>{}</a>".format("x" * (1 << 20))   # 2 nodes: the loop
        total = 10 * self.PIPELINE
        frame = len(protocol.encode_frame(protocol.ok_response(
            total, {"doc_id": "big", "text": text, "version": 0}), 2))

        def executed(server):
            return sum(_routes(server).values())

        async def scenario():
            async with self._server() as server:
                client = await connect(server)
                await client.open("big", text)
                await client.aclose()
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, server.tcp_address)
                reader, writer = await _hello(server, sock)
                before = executed(server)
                writer.write(b"".join(
                    protocol.encode_frame(protocol.request(
                        number, "text", {"doc_id": "big"}), 2)
                    for number in range(1, total + 1)))
                ran = await _settled(lambda: executed(server)) - before
                buffered = max(_write_buffers(server))
                answers = await _answers(reader, total)
                writer.close()
                return ran, buffered, answers

        ran, buffered, answers = run(scenario())
        # execution paused after one pipeline's worth of answers
        # (measured: 4 of 40, behind a stream writer's drain and
        # behind the protocol's pause_writing alike)
        assert ran < total // 2
        # the server holds at most one pipeline's worth of answers
        # beyond the transport's 64 KiB high-water mark (measured:
        # 1.39 MB of the 4.2 MB written; the kernel took the rest)
        assert buffered <= self.PIPELINE * frame + 64 * 1024
        assert [a["id"] for a in answers] == list(range(1, total + 1))
        assert all(a["result"]["text"] == text for a in answers)


class TestPeerVanishes:
    """Requests the server received before its peer vanished are
    executed, in order, whether the peer closed (FIN) or reset (RST) —
    with nothing written to the dead transport and no task left to
    fail unobserved."""

    @pytest.mark.parametrize("close", ["fin", "rst"])
    def test_requests_received_before_the_peer_vanishes_are_executed(
            self, close, caplog):
        opened = []
        unretrieved = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unretrieved.append(context))
            async with make_server() as server:
                open_document = server.dispatcher.open

                def recorded_open(**kwargs):
                    opened.append(kwargs["doc_id"])
                    return open_document(**kwargs)

                server.dispatcher.open = recorded_open
                reader, writer = await _hello(server)
                requests = []
                for index in range(5):
                    doc_id = "d{}".format(index)
                    requests.append(protocol.request(
                        2 * index + 1, "open", {"doc_id": doc_id,
                                                "xml": DOC}))
                    requests.append(protocol.request(
                        2 * index + 2, "query", {"doc_id": doc_id,
                                                 "path": "//title"}))
                if close == "rst":
                    writer.get_extra_info("socket").setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
                writer.write(b"".join(protocol.encode_frame(request, 2)
                                      for request in requests))
                await writer.drain()
                writer.close()
                def open_connections():
                    return server.store.metrics_snapshot()["gauges"][
                        "repro_server_connections"]

                assert await _settled(open_connections) == 0
                assert server.store.doc_ids() == opened

        with caplog.at_level("WARNING", logger="asyncio"):
            run(scenario())
        assert opened == ["d{}".format(index) for index in range(5)]
        assert unretrieved == []
        # asyncio's complaint about writes to a connection it has lost
        assert not [record for record in caplog.records
                    if "socket.send()" in record.getMessage()]


def _load_head_of_line():
    """``tools/head_of_line.py``: the measurement these tests assert
    on is the one the tool prints for any checkout."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    spec = importlib.util.spec_from_file_location(
        "head_of_line", os.path.join(root, "tools", "head_of_line.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return root, module


_ROOT, head_of_line = _load_head_of_line()
_percentile = head_of_line.percentile


class TestHeadOfLine:
    """The size rule against a real server process: what one
    connection's expensive read may cost another connection's cheap
    one. Thresholds are in interpreter switch intervals — the unit a
    pool neighbour costs — and far from the stall they exclude (the
    neighbour's whole run time)."""

    INTERVAL = sys.getswitchinterval()

    @pytest.fixture(scope="class")
    def connect(self):
        with head_of_line.serve(_ROOT) as connect:
            yield connect

    def test_a_small_read_beside_hogs_on_both_sides_of_the_limit(
            self, connect):
        async def scenario():
            client = await connect()
            await client.open("small", head_of_line.SMALL)
            at_text, at_nodes = head_of_line.xmark_text(
                0.012, most=INLINE_MAX_NODES)
            above_text, above_nodes = head_of_line.xmark_text(0.15)
            assert at_nodes > 0.9 * INLINE_MAX_NODES < above_nodes / 8
            await client.open("at", at_text)
            await client.open("above", above_text)
            await head_of_line.probe(client, 30)
            alone = await head_of_line.probe(client, 150)
            await client.aclose()
            above, above_cost = await head_of_line.beside(
                connect, head_of_line.hog("above"), 150)
            at, at_cost = await head_of_line.beside(
                connect, head_of_line.hog("at"), 400)
            return alone, above, above_cost, at, at_cost

        alone, above, above_cost, at, at_cost = run(scenario(), 120)
        # above the limit the hog is a pool neighbour, as it always
        # was: the small read waits about one switch interval (5.7 ms
        # measured at the parent and here), not the hog's run time
        assert above_cost > 10 * self.INTERVAL
        assert _percentile(above, 0.5) < \
            _percentile(alone, 0.5) + 3 * self.INTERVAL
        # at the limit the hog holds the loop, for about one interval:
        # the small read's p99 stays under what a pool neighbour costs
        # at p99 (8 against 15-18 ms measured; the floor of six
        # intervals absorbs a scheduler hiccup in either sample)
        assert at_cost < 4 * self.INTERVAL
        assert _percentile(at, 0.99) < max(
            _percentile(above, 0.99), 6 * self.INTERVAL)
        assert _percentile(at, 0.5) < \
            _percentile(alone, 0.5) + 3 * self.INTERVAL

    def test_the_loop_never_waits_on_a_lock_or_a_long_parse(
            self, connect):
        """While one connection ``open``s a large document (parse,
        label, index, then the store lock) and while one sends a
        200 KB path (two thirds of a second to parse), the other's
        reads keep completing: neither runs on the loop."""
        large, __ = head_of_line.xmark_text(0.6)
        long_path = "//a" * 70000

        async def scenario():
            client = await connect()
            if "small" not in (await client.docs())["docs"]:
                await client.open("small", head_of_line.SMALL)
            await client.aclose()
            opened = []

            async def open_large(hog):
                await hog.open("large{}".format(len(opened)), large)
                opened.append(True)

            results = []
            for busy in (open_large,
                         lambda hog: hog.query("small", long_path)):
                results.append(await head_of_line.beside(connect, busy, 60))
            return results

        for latencies, cost in run(scenario(), 180):
            assert cost > 20 * self.INTERVAL     # the neighbour was slow
            assert _percentile(latencies, 0.5) < 4 * self.INTERVAL
            assert max(latencies) < cost / 2
