"""Observability end to end: server, clients, HTTP, CLI."""

import asyncio
import io
import json

import pytest

from repro.api import AsyncStoreClient, StoreClient, StoreServer
from repro.errors import ProtocolError
from repro.obs import series_key
from repro.store import DocumentStore
from repro.cli import main as cli_main
from tests.cluster.harness import ServerThread

DOC = "<bib><paper><title>T1</title></paper></bib>"


def run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def make_server(**kwargs):
    return StoreServer(DocumentStore(workers=2, backend="serial"),
                       host="127.0.0.1", port=0, **kwargs)


async def connect(server, **kwargs):
    host, port = server.tcp_address
    return await AsyncStoreClient.connect(host=host, port=port,
                                          **kwargs)


class TestNegotiation:
    def test_hello_advertises_the_observability_features(self):
        async def scenario():
            server = await make_server().start()
            try:
                client = await connect(server)
                try:
                    assert "trace" in client.features
                    assert "metrics" in client.features
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        run(scenario())


class TestMetricsOp:
    def test_snapshot_and_prometheus_over_the_wire(self):
        async def scenario():
            server = await make_server().start()
            try:
                client = await connect(server)
                try:
                    await client.open("d1", DOC)
                    await client.submit_xquery(
                        "d1", "insert node <x/> as last into /bib")
                    await client.flush("d1")
                    snap = await client.metrics()
                    assert snap["metrics_enabled"] is True
                    counters = snap["counters"]
                    assert counters["repro_store_flushes_total"] == 1
                    assert counters["repro_server_frames_in_total"] > 0
                    assert snap["gauges"]["repro_server_connections"] \
                        == 1
                    text = (await client.metrics(
                        format="prometheus"))["text"]
                    assert "repro_store_flushes_total 1" \
                        in text.splitlines()
                    assert "repro_uptime_seconds" in text
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        run(scenario())

    def test_a_read_burst_shows_its_route_and_its_memo_hits(self):
        """An ``indexed_reads``-shaped burst — a few dozen paths over
        a few small documents, one request in twenty a ``text`` — is
        readable from the running system: it ran on the loop, the
        answer and text memos answered more than nine lookups in ten,
        and the path memo and the planner saw only the answer memo's
        misses."""
        paths = ["//title", "/bib/paper/title", "//paper[title]",
                 "//title/text()", '//paper[title = "T1"]', "//@id"]

        async def scenario(metrics):
            server = await StoreServer(
                DocumentStore(workers=2, backend="serial",
                              metrics=metrics),
                host="127.0.0.1", port=0).start()
            try:
                client = await connect(server)
                try:
                    for number in range(3):
                        await client.open("d{}".format(number), DOC)
                    before = (await client.metrics())["counters"]
                    for number in range(400):
                        doc_id = "d{}".format(number % 3)
                        if number % 20 == 19:
                            await client.text(doc_id)
                        else:
                            await client.query(
                                doc_id, paths[number % len(paths)])
                    after = (await client.metrics())["counters"]
                    text = (await client.metrics(
                        format="prometheus"))["text"]
                finally:
                    await client.aclose()
            finally:
                await server.aclose()
            return before, after, text

        before, after, text = run(scenario(True))

        def moved(name, **labels):
            key = series_key(name, labels)
            return after.get(key, 0) - before.get(key, 0)

        # the burst on the loop; the closing metrics call on the pool
        assert moved("repro_server_requests_total", route="loop") == 400
        assert moved("repro_server_requests_total", route="pool") == 1
        # each (document, path) pair of the burst is planned once
        hits = moved("repro_store_answer_cache_total", result="hit")
        misses = moved("repro_store_answer_cache_total", result="miss")
        assert (hits, misses) == (380 - len(paths), len(paths))
        assert moved("repro_store_answer_cache_total",
                     result="unkept") == 0
        assert hits / (hits + misses) > 0.9
        assert (moved("repro_store_path_cache_total", result="hit"),
                moved("repro_store_path_cache_total", result="miss")) \
            == (0, len(paths))
        assert moved("repro_store_path_cache_total",
                     result="uncached") == 0
        assert sum(moved("repro_planner_route_total", mode=mode)
                   for mode in ("indexed", "mixed", "walker")) \
            == len(paths)
        assert moved("repro_store_text_cache_total", result="hit") == 17
        assert moved("repro_store_text_cache_total", result="miss") == 3
        for line in ('repro_server_requests_total{route="loop"} 400',
                     'repro_store_answer_cache_total{result="hit"} 374',
                     'repro_store_path_cache_total{result="hit"} 0',
                     'repro_store_text_cache_total{result="miss"} 3'):
            assert line in text.splitlines()
        # metrics=False: same answers, nothing counted
        before, after, text = run(scenario(False))
        assert before == after == {} and text.startswith("# TYPE repro_up")

    def test_traces_and_slow_sections_are_opt_in(self):
        async def scenario():
            server = await make_server().start()
            try:
                client = await connect(server)
                try:
                    await client.stats(_trace="cafe0001")
                    snap = await client.metrics()
                    assert "traces" not in snap
                    snap = await client.metrics(traces=5, slow=5)
                    assert [t["trace_id"] for t in snap["traces"]] \
                        == ["cafe0001"]
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        run(scenario())

    def test_argument_validation(self):
        async def scenario():
            server = await make_server().start()
            try:
                client = await connect(server)
                try:
                    with pytest.raises(ProtocolError):
                        await client.metrics(format="xml")
                    with pytest.raises(ProtocolError):
                        await client.metrics(traces=-1)
                    with pytest.raises(ProtocolError):
                        await client.metrics(slow=True)
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        run(scenario())


class TestRequestTracing:
    def test_trace_id_is_recorded_server_side(self):
        async def scenario():
            server = await make_server().start()
            try:
                client = await connect(server)
                try:
                    await client.open("d1", DOC)
                    await client.submit_xquery(
                        "d1", "insert node <x/> as last into /bib",
                        _trace="feedbead00000001")
                    await client.flush("d1", _trace="feedbead00000002")
                    traces = server.store.obs.tracer.recent()
                    by_id = {t["trace_id"]: t for t in traces}
                    assert by_id["feedbead00000001"]["op"] \
                        == "submit_xquery"
                    flush_trace = by_id["feedbead00000002"]
                    assert flush_trace["op"] == "flush"
                    stage_names = [child["name"] for child
                                   in flush_trace["spans"]["children"]]
                    assert "coalesce" in stage_names
                    assert "publish" in stage_names
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        run(scenario())

    def test_untraced_calls_record_nothing(self):
        async def scenario():
            server = await make_server().start()
            try:
                client = await connect(server)
                try:
                    await client.open("d1", DOC)
                    await client.stats()
                    assert server.store.obs.tracer.recent() == []
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        run(scenario())

    def test_blocking_client_refuses_a_malformed_trace(self):
        with ServerThread(DocumentStore(backend="serial")) as node:
            host, port = node.address.rsplit(":", 1)
            with StoreClient.connect(host=host,
                                     port=int(port)) as client:
                with pytest.raises(ProtocolError):
                    client.docs(_trace="")
                client.docs(_trace="ab12")   # well-formed: accepted


class TestMetricsHttp:
    def test_scrape_and_404(self):
        async def scenario():
            server = await make_server(
                metrics_listen=("127.0.0.1", 0)).start()
            try:
                client = await connect(server)
                try:
                    await client.open("d1", DOC)
                finally:
                    await client.aclose()
                host, port = server.metrics_http_address

                async def get(path):
                    reader, writer = await asyncio.open_connection(
                        host, port)
                    writer.write("GET {} HTTP/1.1\r\nHost: x\r\n\r\n"
                                 .format(path).encode("ascii"))
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    return raw.decode("utf-8")

                body = await get("/metrics")
                assert body.startswith("HTTP/1.1 200 OK\r\n")
                assert "text/plain; version=0.0.4" in body
                assert "repro_store_op_latency_seconds_bucket" in body
                missing = await get("/nope")
                assert missing.startswith("HTTP/1.1 404")
            finally:
                await server.aclose()

        run(scenario())


class TestStatsExtensions:
    def test_uptime_and_pending_batches_over_the_wire(self):
        async def scenario():
            server = await make_server().start()
            try:
                client = await connect(server)
                try:
                    await client.open("d1", DOC)
                    await client.submit_xquery(
                        "d1", "insert node <x/> as last into /bib")
                    await client.flush("d1")
                    stats = await client.stats()
                    assert stats["uptime_seconds"] >= 0
                    [entry] = stats["stats"]
                    assert entry["version"] == 1
                    assert entry["pending_batches"] == 0
                finally:
                    await client.aclose()
            finally:
                await server.aclose()

        run(scenario())


class TestCli:
    def test_store_metrics_against_a_live_server(self):
        with ServerThread(DocumentStore(backend="serial")) as node:
            out = io.StringIO()
            assert cli_main(["store", "metrics", "--target",
                             node.address], out=out) == 0
            assert "repro_server_connections" in out.getvalue()
            out = io.StringIO()
            assert cli_main(["store", "metrics", "--target",
                             node.address, "--json"], out=out) == 0
            payload = json.loads(out.getvalue())
            assert payload["metrics_enabled"] is True

    def test_store_top_renders_live_frames(self):
        store = DocumentStore(backend="serial")
        with ServerThread(store) as node:
            host, port = node.address.rsplit(":", 1)
            with StoreClient.connect(host=host,
                                     port=int(port)) as client:
                client.open("d1", DOC)
                client.submit_xquery(
                    "d1", "insert node <x/> as last into /bib")
                client.flush("d1")
                client.query("d1", "/bib/paper/title")
            out = io.StringIO()
            assert cli_main(
                ["store", "top", "--target", node.address,
                 "--interval", "0.05", "--iterations", "2",
                 "--no-clear"], out=out) == 0
            frame = out.getvalue()
            assert "repro store top" in frame
            assert "ops/s" in frame
            # the first frame averages over uptime: the ops above must
            # show up as nonzero rates with real percentiles
            flush_line = next(line for line in frame.splitlines()
                              if line.startswith("flush"))
            fields = flush_line.split()
            assert float(fields[1]) > 0          # ops/s
            assert float(fields[2]) > 0          # p50 ms
            assert float(fields[3]) > 0          # p99 ms
            assert "replication: off" in frame
