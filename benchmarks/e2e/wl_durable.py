"""``durable_writes``: acknowledged-durable flushes into a resident store.

Closed loop, two writer threads, in-process ``DocumentStore`` with
``durability="log+snapshot:K"`` (every flush is fsynced before it
returns; group commit on, ``group_window=0``), one pipeline worker,
serial backend. Each thread owns half the resident documents; per
round and document it decodes and submits two clients' PULs and
flushes. One operation is one acknowledged flush, timed from the first
decode to the flush's return. The run ends with the restarts: close,
open a new store on the same directory (``recovery_s``), compare every
recovered document.
"""

import gc
import threading
import time
import types

import config
import harness
import layers
import measure
from gen import sha256_text
from repro.errors import ReproError
from repro.pul.serialize import pul_from_xml


#: whether the program under test runs in this process (``run.py``
#: pins this process or the server subprocess accordingly)
IN_PROCESS = True


def doc_ids(inputs):
    """``[(doc id, family index)]`` of every resident copy, family by
    family, so that striding the list over the writer threads gives
    each thread the same share of every family."""
    return [("f{}c{}".format(family, copy), family)
            for family in range(len(inputs["docs"]))
            for copy in range(config.DURABLE["copies"])]


def snapshot_every():
    """K of ``log+snapshot:K``, a constant of the configuration: the
    default-length run compacts ``snapshots`` times."""
    cfg = config.DURABLE
    flushes = (cfg["rounds_per_s"] * config.DEFAULT_SECONDS
               * cfg["families"] * cfg["copies"])
    return max(2, round(flushes / (cfg["snapshots"] + 1)))


def durability_spec():
    return "log+snapshot:{}".format(snapshot_every())


def flush_round(store, doc_id, submissions, tracer, request=None):
    """Decode and submit one round's PULs, then flush."""
    with tracer.span("op.flush", request=request):
        for client, wire in submissions:
            pul = tracer.call("pul.decode", pul_from_xml, wire)
            tracer.call("store.submit", store.submit, doc_id, pul,
                        client=client)
        return tracer.call("store.flush", store.flush, doc_id)


def _setup(inputs, options, tracer):
    """Construct the store, open every document, run the warm-up
    rounds. Returns ``(store, wal dir, set-up timer)``."""
    wal_dir = options.scratch("wal")
    with harness.Stopwatch() as timer:
        store = harness.open_durable(wal_dir, durability_spec())
        for doc_id, family in doc_ids(inputs):
            store.open(doc_id, inputs["docs"][family])
        for round_index in range(inputs["warmup"]):
            for doc_id, family in doc_ids(inputs):
                flush_round(store, doc_id,
                            inputs["rounds"][family][round_index], tracer)
    return store, wal_dir, timer


def _writer(store, owned, inputs, recorder, tracer, errors):
    clock = time.perf_counter
    first = inputs["warmup"]
    for round_index in range(first, first + inputs["timed"]):
        for doc_id, family in owned:
            submissions = inputs["rounds"][family][round_index]
            start = clock()
            try:
                flush_round(store, doc_id, submissions, tracer,
                            request="{}@{}".format(doc_id, round_index))
            except ReproError as error:
                errors.append("{} round {}: {}".format(
                    doc_id, round_index, error))
            recorder.done(clock() - start, "flush")


def _check_texts(store, inputs, result, label):
    for doc_id, family in doc_ids(inputs):
        if sha256_text(store.text(doc_id)) != \
                inputs["expected_sha"][family]:
            result.mismatches.append(
                "{} text of {} differs from the oracle".format(
                    label, doc_id))


def run(inputs, options, tracer):
    result = harness.Result()
    setups = []
    store = None
    for __ in range(options.setup_repeats):
        if store is not None:
            store.close()
        store, wal_dir, timer = _setup(inputs, options, tracer)
        setups.append(timer)
    try:
        return _measure(inputs, options, tracer, result, store, wal_dir,
                        setups)
    finally:
        store.close()


def _measure(inputs, options, tracer, result, store, wal_dir, setups):
    ids = doc_ids(inputs)
    threads = config.DURABLE["threads"]
    total = inputs["timed"] * len(ids)

    recorder = measure.SliceRecorder(
        total, time.process_time, on_block=options.block_switch(tracer))
    errors = []
    workers = [threading.Thread(
        target=_writer,
        args=(store, ids[slot::threads], inputs, recorder, tracer, errors))
        for slot in range(threads)]
    before = store.metrics_snapshot()
    gc.collect()
    recorder.begin()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    tracer.enabled = False
    rss = measure.peak_rss_mb()
    after = store.metrics_snapshot()
    stats = store.stats()
    result.attempted = total
    result.failed = len(errors)
    result.mismatches.extend(errors)
    _check_texts(store, inputs, result, "final")

    copies = config.DURABLE["copies"]
    first = inputs["warmup"]
    seen = types.SimpleNamespace(
        before=before, after=after, stats=stats, wal_dir=wal_dir,
        snapshot_ms=0.0,
        pul_ops=copies * sum(
            wire.count("<op ")
            for rounds in inputs["rounds"]
            for submissions in rounds[first:first + inputs["timed"]]
            for __, wire in submissions))
    seen.stored_bytes = harness.directory_bytes(wal_dir)
    store.close()
    seen.restarts, seen.report = harness.timed_restarts(
        wal_dir, durability_spec(),
        lambda recovered: _check_texts(recovered, inputs, result,
                                       "recovered"),
        config.DURABLE["restarts"])
    if options.trace:
        # one explicit compaction, timed, after the restarts (it would
        # leave them nothing to replay)
        with harness.open_durable(wal_dir, durability_spec()) as reopened:
            start = time.perf_counter()
            reopened.snapshot()
            seen.snapshot_ms = (time.perf_counter() - start) * 1e3

    summary = recorder.summary(options.probe.factor)
    samples = "{} flushes, {} per slice".format(
        total, total // measure.SLICES)
    harness.put_watches(result, "setup_s", setups, options.probe,
                        "complete set-ups")
    harness.put_timings(result, summary, samples)
    result.put("rss_mb", rss)
    harness.put_durable(result, seen, options.probe)
    if options.trace:
        _per_layer(inputs, recorder, tracer, result, seen)
    return result


def _per_layer(inputs, recorder, tracer, result, seen):
    seen.doc_bytes = config.DURABLE["copies"] * sum(
        len(text.encode("utf-8")) for text in inputs["docs"])
    harness.put_store_layers(result, seen)
    flush_ms = [(end - start) * 1e3 for __, __p, name, start, end, __r
                in tracer.spans if name == "store.flush"]
    result.put("store.flush_ms_p50", measure.percentile(flush_ms, 50),
               "{} traced flushes".format(len(flush_ms)))
    result.put("store.flush_ms_p99", measure.percentile(flush_ms, 99))
    # layer replay on a sample of the workload's own inputs
    result.put_all(layers.document_layers(inputs["docs"][::2]))
    result.put_all(layers.pul_codec([
        wire for rounds in inputs["rounds"]
        for submissions in rounds[::config.SAMPLE_EVERY]
        for __, wire in submissions]))
    rounds = inputs["rounds"][0]
    result.put_all(layers.flush_path(
        inputs["docs"][0], rounds[:max(2, len(rounds) // 2)]))
    result.put("bench.trace_overhead_ratio", recorder.trace_overhead())
