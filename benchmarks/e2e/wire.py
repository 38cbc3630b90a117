"""What the two over-the-wire workloads share: connecting to the server
subprocess, opening documents, issuing reads, and the read oracle."""

import asyncio
import statistics
import time

import config
import harness
import layers
from repro.api import AsyncStoreClient, protocol
from repro.index import build_index
from repro.labeling import ContainmentLabeling
from repro.obs import series_key
from repro.store import DocumentStore
from repro.xdm.parser import parse_document


async def connect(server, count):
    return [await AsyncStoreClient.connect(
        unix_path=server.socket_path, client="bench-{}".format(index))
        for index in range(count)]


async def close_all(clients):
    for client in clients:
        await client.aclose()


async def open_documents(clients, documents):
    """Open ``[(doc id, xml)]`` over the given connections, one open in
    flight per connection."""
    async def opener(client, share):
        for doc_id, xml in share:
            await client.open(doc_id, xml)

    await asyncio.gather(*(
        opener(client, documents[slot::len(clients)])
        for slot, client in enumerate(clients)))


async def read(client, tracer, kind, doc_id, path):
    """One read request; returns the comparable part of the answer."""
    if kind == "text":
        response = await tracer.acall("client.text", client.text, doc_id)
        return response["text"]
    response = await tracer.acall("client.query", client.query, doc_id,
                                  path)
    return response["nodes"]


def check_reads(texts, samples, result):
    """Re-run sampled reads with the tree walker on an in-process
    oracle store and compare bytes. ``texts`` maps document id to its
    XML at the time of the reads, ``samples`` is ``[(kind, doc id,
    path, answer)]``."""
    with DocumentStore(workers=1, backend="serial", metrics=False) \
            as oracle:
        for doc_id in sorted({doc_id for __, doc_id, __p, __a in samples}):
            oracle.open(doc_id, texts[doc_id])
        for kind, doc_id, path, answer in samples:
            if kind == "text":
                expected = oracle.text(doc_id)
            else:
                expected = oracle.query(doc_id, path,
                                        engine="walk")["nodes"]
            if answer != expected:
                result.mismatches.append(
                    "{} {} on {}: answer differs from the walker "
                    "oracle".format(kind, path or "", doc_id))


def read_layers(texts_by_index, requests):
    """Layer replay for the read path on sampled requests:
    ``requests`` is ``[kind, document index, path]``."""
    documents = {}
    for __, doc_index, __path in requests:
        if doc_index not in documents:
            document = parse_document(texts_by_index[doc_index])
            labeling = ContainmentLabeling().build(document)
            documents[doc_index] = (document, labeling,
                                    build_index(document, labeling))
    metrics = layers.query_layers(documents, requests)
    # store.query / store.text on an in-process store: the read path
    # minus the wire
    query_s, text_s, text_knodes = [], 0.0, 0.0
    with DocumentStore(workers=1, backend="serial", metrics=False) \
            as store:
        for doc_index in documents:
            store.open(doc_index, texts_by_index[doc_index])
        for kind, doc_index, path in requests:
            start = time.perf_counter()
            if kind == "text":
                store.text(doc_index)
                text_s += time.perf_counter() - start
                text_knodes += len(documents[doc_index][0]) / 1000.0
            else:
                store.query(doc_index, path)
                query_s.append(time.perf_counter() - start)
    metrics["store.query_us_p50"] = (
        statistics.median(query_s) * 1e6 if query_s else 0.0)
    metrics["store.text_us_per_knode"] = harness.ratio(
        text_s * 1e6, text_knodes)
    return metrics


def codec_messages(requests, answers):
    """``(request, response)`` protocol messages for sampled reads."""
    pairs = []
    for number, ((kind, doc_id, path), answer) in enumerate(
            zip(requests, answers)):
        if kind == "text":
            pairs.append((
                protocol.request(number, "text", {"doc_id": doc_id}),
                protocol.ok_response(number, {
                    "doc_id": doc_id, "text": answer, "version": 0})))
        else:
            pairs.append((
                protocol.request(number, "query",
                                 {"doc_id": doc_id, "path": path}),
                protocol.ok_response(number, {
                    "doc_id": doc_id, "version": 0,
                    "count": len(answer), "nodes": answer})))
    return pairs


def put_read_layers(result, texts, sample, answers, doc_name, before,
                    after):
    """Per-layer figures of the read path. ``sample`` is ``[kind,
    document index, path]`` of the sampled requests, ``answers`` what
    the server returned for them, ``texts`` the documents by index."""
    result.put_all(read_layers(texts, sample))
    result.put_all(layers.document_layers(texts[::config.SAMPLE_EVERY]))
    result.put_all(layers.wire_codec(codec_messages(
        [(kind, doc_name(index), path) for kind, index, path in sample],
        answers)))
    open_s, opens = harness.histogram(after, harness.op_key("open"))
    result.put("store.open_ms_per_doc",
               harness.ratio(open_s * 1e3, opens))
    routes = {
        mode: harness.counter_delta(after, before, series_key(
            "repro_planner_route_total", {"mode": mode}))
        for mode in ("indexed", "mixed", "walker")}
    result.put("index.route_indexed_ratio",
               harness.ratio(routes["indexed"], sum(routes.values())),
               "indexed {indexed} / mixed {mixed} / walker "
               "{walker}".format(**routes))


def put_api_layers(result, summary, recorder, rtt_us):
    result.put("api.rtt_us_noop", rtt_us)
    result.put("api.server_cpu_ms_per_op", summary["raw"]["cpu_ms_per_op"])
    # Little's law: requests in flight = latency sum over elapsed time
    result.put("api.inflight_mean", harness.ratio(
        sum(recorder.latencies), recorder.elapsed_s()))


async def noop_rtt_us(client, doc_id, samples=200):
    """Median round trip of a request that does no work (``discard``
    on a document with nothing pending)."""
    latencies = []
    for __ in range(samples):
        start = time.perf_counter()
        await client.discard(doc_id)
        latencies.append(time.perf_counter() - start)
    return statistics.median(latencies) * 1e6
