"""Layer replay: after a traced run, each layer's public function is
called directly on a fixed sample of the workload's own inputs and
timed. Every function returns ``{metric name: value}``; the workload
merges what its layers produce, everything else stays 0.
"""

import os
import statistics
import time

from repro.aggregation import aggregate
from repro.api import FrameDecoder, encode_frame
from repro.apply.inplace import apply_batch_in_place, replay_batch
from repro.index import build_index, run_query
from repro.integration import integrate
from repro.labeling import ContainmentLabeling
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.reduction import reduce_deterministic
from repro.store.durability import WalWriter
from repro.store.store import coalesce_batch
from repro.xdm.parser import parse_document
from repro.xdm.serializer import serialize
from repro.xquery import compile_pul, parse_path

_clock = time.perf_counter


def _timed(function, *args, **kwargs):
    start = _clock()
    value = function(*args, **kwargs)
    return value, _clock() - start


def _us_per(total_s, units):
    return total_s * 1e6 / units if units else 0.0


def document_layers(texts):
    """Parse, label, index and serialize each text once."""
    parse_s = label_s = index_s = serialize_s = 0.0
    nodes = 0
    for text in texts:
        document, elapsed = _timed(parse_document, text)
        parse_s += elapsed
        labeling, elapsed = _timed(ContainmentLabeling().build, document)
        label_s += elapsed
        __, elapsed = _timed(build_index, document, labeling)
        index_s += elapsed
        __, elapsed = _timed(serialize, document)
        serialize_s += elapsed
        nodes += len(document)
    knodes = nodes / 1000.0
    return {
        "xdm.parse_us_per_knode": _us_per(parse_s, knodes),
        "xdm.serialize_us_per_knode": _us_per(serialize_s, knodes),
        "labeling.build_us_per_knode": _us_per(label_s, knodes),
        "index.build_us_per_knode": _us_per(index_s, knodes),
    }


def pul_codec(wires):
    """Decode and re-encode PUL exchange documents."""
    decode_s = encode_s = 0.0
    ops = 0
    for wire in wires:
        pul, elapsed = _timed(pul_from_xml, wire)
        decode_s += elapsed
        __, elapsed = _timed(pul_to_xml, pul)
        encode_s += elapsed
        ops += len(pul)
    return {"pul.decode_us_per_op": _us_per(decode_s, ops),
            "pul.encode_us_per_op": _us_per(encode_s, ops)}


def flush_path(text, rounds):
    """The store's flush path, layer by layer, on one document.

    Mirrors what a flush does between ``submit`` and ``publish`` using
    only public functions: coalesce the round's submissions, reduce,
    apply in place on the working pair, derive the index from the
    retiring version's, and catch the retired tree up by replay — the
    two trees leapfrog exactly like the store's published/spare pair.
    ``rounds`` is ``[[client, pul xml], ...]`` per round."""
    live = parse_document(text)
    live_labels = ContainmentLabeling().build(live)
    spare = parse_document(text)
    spare_labels = live_labels.copy()
    index = build_index(live, live_labels)
    totals = dict.fromkeys(
        ("coalesce", "reduce", "inplace", "derive", "replay"), 0.0)
    submitted = reduced_ops = derived_ops = 0
    for submissions in rounds:
        pending = [(arrival, client, pul_from_xml(wire))
                   for arrival, (client, wire) in enumerate(submissions)]
        batch, elapsed = _timed(coalesce_batch, pending, live_labels)
        totals["coalesce"] += elapsed
        submitted += len(batch)
        reduced, elapsed = _timed(reduce_deterministic, batch)
        totals["reduce"] += elapsed
        reduced_ops += len(reduced)
        # `spare` still holds the pre-batch tree: it is the "old
        # document" of the index derivation and the replay target
        mode, elapsed = _timed(apply_batch_in_place, live, live_labels,
                               reduced)
        totals["inplace"] += elapsed
        derived = None
        if mode == "incremental" and index is not None:
            derived, elapsed = _timed(index.derive, spare, live,
                                      live_labels, reduced)
            totals["derive"] += elapsed
            derived_ops += len(reduced)
        index = derived if derived is not None else build_index(
            live, live_labels)
        __, elapsed = _timed(replay_batch, spare, spare_labels, reduced)
        totals["replay"] += elapsed
        spare_labels = live_labels.copy()
    if serialize(live) != serialize(spare):
        raise AssertionError("layer replay: live and replayed trees differ")
    return {
        "store.coalesce_us_per_op": _us_per(totals["coalesce"], submitted),
        "reduction.us_per_op": _us_per(totals["reduce"], submitted),
        "reduction.survivor_ratio": (reduced_ops / submitted
                                     if submitted else 0.0),
        "apply.inplace_us_per_op": _us_per(totals["inplace"], reduced_ops),
        "apply.replay_us_per_op": _us_per(totals["replay"], reduced_ops),
        "index.derive_us_per_op": _us_per(totals["derive"], derived_ops),
    }


def query_layers(documents, requests):
    """Planner and walker on sampled read requests.

    ``documents`` maps document index to ``(document, labeling,
    index)``; ``requests`` is ``[kind, document index, path]``."""
    by_kind = {}
    parse_s = walk_s = 0.0
    walked_knodes = 0.0
    rows = results = paths = 0
    for kind, doc_index, path in requests:
        if path is None:
            continue
        document, labeling, index = documents[doc_index]
        parsed, elapsed = _timed(parse_path, path)
        parse_s += elapsed
        paths += 1
        (nodes, plan), elapsed = _timed(
            run_query, parsed, document, labeling=labeling, index=index)
        by_kind.setdefault(kind, []).append(elapsed)
        results += len(nodes)
        for step in plan.get("steps", ()):
            if step.get("choice") == "index-scan":
                rows += step.get("bucket", 0)
        __, elapsed = _timed(run_query, parsed, document,
                             labeling=labeling, index=index, engine="walk")
        walk_s += elapsed
        walked_knodes += len(document) / 1000.0
    metrics = {
        "xquery.parse_path_us": _us_per(parse_s, paths),
        "xquery.walk_us_per_knode": _us_per(walk_s, walked_knodes),
        "index.rows_per_result": rows / results if results else 0.0,
    }
    for kind, samples in by_kind.items():
        metrics["index.query_us." + kind] = (
            statistics.median(samples) * 1e6)
    return metrics


def compile_layer(jobs):
    """Compile XQuery Update expressions; ``jobs`` is ``[(document,
    labeling, expression)]``."""
    total = 0.0
    for document, labeling, expression in jobs:
        __, elapsed = _timed(compile_pul, expression, document,
                             labeling=labeling)
        total += elapsed
    return {"xquery.compile_us_per_expr": _us_per(total, len(jobs))}


def wire_codec(messages):
    """Protocol v2 framing of request and response messages (a
    ``(request, response)`` pair list)."""
    decoder = FrameDecoder(version=2)
    total = 0.0
    frames = 0
    for pair in messages:
        for message in pair:
            start = _clock()
            decoder.feed(encode_frame(message, 2))
            total += _clock() - start
            frames += 1
    return {"api.codec_us_per_frame": _us_per(total, frames)}


def fsync_probe(directory, payload_bytes=2048, samples=40):
    """Append-and-fsync latency of the WAL writer on the run's own
    filesystem — shows a device where fsync is a no-op."""
    path = os.path.join(directory, "fsync-probe.log")
    payload = b"x" * payload_bytes
    latencies = []
    writer = WalWriter(path)
    try:
        for __ in range(samples):
            start = _clock()
            writer.append(payload, sync=True)
            latencies.append(_clock() - start)
    finally:
        writer.close()
        os.unlink(path)
    return {"durability.fsync_us_p50": statistics.median(latencies) * 1e6}


def reasoning_layers(pool):
    """Aggregation and integration ratios on sampled pool jobs (their
    timings come from the run's own spans)."""
    agg_in = agg_out = int_ops = conflicts = 0
    for job in pool:
        puls = [pul_from_xml(wire) for wire in job["puls"]]
        if job["family"] == "aggregate":
            agg_in += job["ops"]
            agg_out += len(aggregate(puls))
        elif job["family"] == "integrate":
            int_ops += job["ops"]
            conflicts += len(integrate(puls).conflicts)
    return {
        "aggregation.output_ratio": agg_out / agg_in if agg_in else 0.0,
        "integration.conflicts_per_kop": (conflicts * 1000.0 / int_ops
                                          if int_ops else 0.0),
    }
