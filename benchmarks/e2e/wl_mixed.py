"""``open_mixed``: reads and durable writes arriving on a schedule.

Open loop over the wire with durability on: one server subprocess with
``--wal-dir`` and ``--durability log+snapshot:K``, two connections (one
for reads, one for writes, both pipelined), operations issued at a
constant rate whether or not earlier ones completed — 80% reads (the
``indexed_reads`` mix), 20% writes (``submit_xquery`` then ``flush``,
acknowledged durable). Latency is measured from each operation's due
time. Writes to one document are kept in order by the generator, as a
client session would. The run ends with the server stopped and the WAL
directory recovered in-process (``recovery_s``); every final and
recovered text is compared with the oracle.
"""

import asyncio
import gc
import sys
import time
import types

import config
import harness
import layers
import measure
import wire
from gen import sha256_text
from openloop import OpenLoop
from repro.labeling import ContainmentLabeling
from repro.xdm.parser import parse_document

WRITER = "writer"
#: whether the program under test runs in this process (``run.py``
#: pins this process or the server subprocess accordingly)
IN_PROCESS = False


def doc_id(index):
    return "m{}".format(index)


def durability_spec():
    """``log+snapshot:K`` with K a constant of the configuration: the
    default-length run compacts ``snapshots`` times."""
    cfg = config.MIXED
    writes = cfg["rate_per_s"] * cfg["write_share"] * config.DEFAULT_SECONDS
    return "log+snapshot:{}".format(
        max(2, round(writes / (cfg["snapshots"] + 1))))


class Session:
    """The two connections and the per-document write order."""

    def __init__(self, reader, writer, tracer):
        self.reader = reader
        self.writer = writer
        self.tracer = tracer
        self._locks = {}

    async def perform(self, number, op):
        """Run one operation; returns ``(kind, answer, error)``."""
        kind, index, payload = op
        target = doc_id(index)
        try:
            with self.tracer.span("op." + kind, request=number):
                if kind != "write":
                    return kind, await wire.read(
                        self.reader, self.tracer, kind, target,
                        payload), None
                lock = self._locks.setdefault(index, asyncio.Lock())
                async with lock:
                    await self.tracer.acall(
                        "client.submit_xquery", self.writer.submit_xquery,
                        target, payload, client=WRITER)
                    flushed = await self.tracer.acall(
                        "client.flush", self.writer.flush, target)
                if flushed is None:
                    return kind, None, "flush found nothing pending"
                return kind, flushed, None
        except Exception as error:   # any failed operation is counted
            return kind, None, repr(error)


async def _setup(inputs, options, tracer):
    """Spawn the durable server, open every document, run the warm-up
    operations (closed loop, in order). Returns ``(server, session,
    clients, wal dir, set-up timer)``."""
    directory = options.scratch("server")
    wal_dir = options.scratch("wal")
    with harness.Stopwatch() as timer:
        server = harness.Server(directory, cpu=options.program_cpu,
                                wal_dir=wal_dir,
                                durability=durability_spec())
        try:
            clients = await wire.connect(server, 2)
            await wire.open_documents(
                clients, [(doc_id(index), text)
                          for index, text in enumerate(inputs["docs"])])
            session = Session(clients[0], clients[1], tracer)
            for number, op in enumerate(inputs["ops"][:inputs["warmup"]]):
                __, __answer, error = await session.perform(number, op)
                if error is not None:
                    raise RuntimeError("warm-up failed: " + error)
        except BaseException:
            server.stop()
            raise
    return server, session, clients, wal_dir, timer


async def _run(inputs, options, tracer):
    """Set up, run the schedule; when the generator itself ran late
    (the host stalled its process), tear down and repeat, at most
    ``attempts`` times — a schedule that was not kept measures the
    stall, not the program. The last attempt is reported whatever its
    lateness: a stalled host is not a wrong answer of the program, and
    every latency is measured from the due time, so the stall is in
    the figures."""
    result = harness.Result()
    setups = []
    limit = config.MIXED["late_limit_ms"]
    attempts = config.MIXED["attempts"]
    for attempt in range(1, attempts + 1):
        # the first attempt measures the set-ups; a repeat sets up once
        repeats = options.setup_repeats if attempt == 1 else 1
        for number in range(repeats):
            server, session, clients, wal_dir, timer = await _setup(
                inputs, options, tracer)
            if attempt == 1:
                setups.append(timer)
            if number < repeats - 1:
                await wire.close_all(clients)
                server.stop()
        try:
            driven = await _drive(inputs, options, tracer, server, session,
                                  clients)
            if driven.late_ms_p99 < limit or attempt == attempts:
                driven.attempt = attempt
                await _finish(inputs, options, result, server, clients,
                              wal_dir, setups, driven)
                return result
            del tracer.spans[:]
        finally:
            await wire.close_all(clients)
            server.stop()


async def _drive(inputs, options, tracer, server, session, clients):
    """The timed phase: the whole schedule. Returns what it saw."""
    warmup = inputs["warmup"]
    ops = inputs["ops"][warmup:]
    sampled = {}
    failures = []

    recorder = measure.SliceRecorder(
        len(ops), server.cpu_s, on_block=options.block_switch(tracer))
    loop = OpenLoop(config.MIXED["rate_per_s"], len(ops))

    def on_done(index, latency, outcome):
        kind, answer, error = outcome
        recorder.done(latency, "write" if kind == "write" else "read")
        if error is not None:
            failures.append("op {} ({}): {}".format(index, kind, error))
        elif kind != "write" and index % config.SAMPLE_EVERY == 0:
            sampled[index] = (ops[index], answer)

    before = await clients[0].metrics()
    gc.collect()
    await loop.run(lambda index: session.perform(warmup + index,
                                                 ops[index]),
                   on_done, on_start=recorder.begin)
    tracer.enabled = False
    return types.SimpleNamespace(
        recorder=recorder, loop=loop, sampled=sampled, failures=failures,
        before=before, after=await clients[0].metrics(),
        rss=measure.peak_rss_mb(server.pid),
        stats=(await clients[0].stats())["stats"],
        late_ms_p99=measure.percentile(loop.late_s, 99) * 1e3,
        writes=[op for op in ops if op[0] == "write"])


async def _finish(inputs, options, result, server, clients, wal_dir, setups,
                  seen):
    """Everything after the timed phase: the oracle, the restarts, the
    report."""
    limit = config.MIXED["late_limit_ms"]
    recorder, loop = seen.recorder, seen.loop
    result.attempted = recorder.total
    result.failed = len(seen.failures)
    result.mismatches.extend(seen.failures)
    if seen.late_ms_p99 >= limit:
        result.notes["bench.schedule"] = (
            "NOT KEPT: p99 lateness {:.2f} ms (limit {} ms) in each of {} "
            "attempts; the host stalled the generator, read this run's "
            "latencies with that in mind".format(
                seen.late_ms_p99, limit, seen.attempt))
        sys.stderr.write("warning: open_mixed schedule {}\n".format(
            result.notes["bench.schedule"]))

    # final texts over the wire, then stop the server and recover
    for index, expected in enumerate(inputs["expected_sha"]):
        text = (await clients[0].text(doc_id(index)))["text"]
        if sha256_text(text) != expected:
            result.mismatches.append(
                "final text of {} differs from the oracle".format(
                    doc_id(index)))
    seen.wal_dir = wal_dir
    seen.snapshot_ms = seen.rtt_us = 0.0
    # every write compiles to one PUL operation
    seen.pul_ops = len(seen.writes)
    if options.trace:
        seen.rtt_us = await wire.noop_rtt_us(clients[0], doc_id(0))
    await wire.close_all(clients)
    server.stop()
    options.join_program_cpu()
    seen.stored_bytes = harness.directory_bytes(wal_dir)

    def check(recovered):
        for index, expected in enumerate(inputs["expected_sha"]):
            if sha256_text(recovered.text(doc_id(index))) != expected:
                result.mismatches.append(
                    "recovered text of {} differs from the "
                    "oracle".format(doc_id(index)))

    seen.restarts, seen.report = harness.timed_restarts(
        wal_dir, durability_spec(), check, config.MIXED["restarts"])
    if options.trace:
        # one explicit compaction, timed, after the restarts (it would
        # leave them nothing to replay)
        with harness.open_durable(wal_dir, durability_spec()) as reopened:
            start = time.perf_counter()
            reopened.snapshot()
            seen.snapshot_ms = (time.perf_counter() - start) * 1e3

    summary = recorder.summary(options.probe.factor, fixed_rate=True,
                               trust=0.5)
    samples = "{} operations at {}/s, {} per slice".format(
        recorder.total, config.MIXED["rate_per_s"],
        recorder.total // measure.SLICES)
    harness.put_watches(result, "setup_s", setups, options.probe,
                        "complete set-ups")
    # the one phase rescaled by the square root of the probe's factor
    # (``trust=0.5`` above): the server sleeps between arrivals, and
    # what the probe samples then is half the speed the requests see,
    # half the wake-up path (README, noise controls)
    harness.put_timings(result, summary, samples)
    result.put("rss_mb", seen.rss)
    harness.put_durable(result, seen, options.probe)
    if options.trace:
        _per_layer(inputs, summary, result, seen)
    else:
        result.notes["bench.late_ms_p99"] = (
            "{:.3f} ms (worst {:.1f}), attempt {}".format(
                seen.late_ms_p99, max(loop.late_s) * 1e3, seen.attempt))
        result.notes["bench.backlog_max"] = str(loop.backlog_max)


def _per_layer(inputs, summary, result, seen):
    after, before = seen.after, seen.before
    recorder, loop, sampled, writes = (seen.recorder, seen.loop,
                                       seen.sampled, seen.writes)
    order = sorted(sampled)
    wire.put_read_layers(result, inputs["docs"],
                         [sampled[i][0] for i in order],
                         [sampled[i][1] for i in order], doc_id, before,
                         after)
    seen.doc_bytes = sum(len(text.encode("utf-8"))
                         for text in inputs["docs"])
    harness.put_store_layers(result, seen)
    # compile the sampled writes against their (initial) documents
    parsed = {}
    jobs = []
    for __, index, expression in writes[::config.SAMPLE_EVERY]:
        if index not in parsed:
            document = parse_document(inputs["docs"][index])
            parsed[index] = (document,
                             ContainmentLabeling().build(document))
        jobs.append(parsed[index] + (expression,))
    result.put_all(layers.compile_layer(jobs))
    put = result.put
    # the flush path from the server's own stage timers, per flushed op
    flushes = harness.counter_delta(after, before,
                                    "repro_store_flushes_total")
    for name, stage in (("store.coalesce_us_per_op", "coalesce"),
                        ("reduction.us_per_op", "reduce"),
                        ("apply.inplace_us_per_op", "apply"),
                        ("index.derive_us_per_op", "index-derive")):
        total_s, __ = harness.histogram_delta(after, before,
                                              harness.stage_key(stage))
        put(name, harness.ratio(total_s * 1e6, flushes))
    flush_key = harness.op_key("flush")
    put("store.flush_ms_p50", harness.histogram_percentile(
        after, before, flush_key, 0.5) * 1e3,
        "from the server's latency histogram")
    put("store.flush_ms_p99", harness.histogram_percentile(
        after, before, flush_key, 0.99) * 1e3)
    wire.put_api_layers(result, summary, recorder, seen.rtt_us)
    for kind in ("read", "write"):
        latencies = recorder.by_kind(kind)
        put("api.{}_p50_ms".format(kind),
            measure.percentile(latencies, 50) * 1e3,
            "{} {}s, from due time".format(len(latencies), kind))
        put("api.{}_p99_ms".format(kind),
            measure.percentile(latencies, 99) * 1e3)
    put("bench.late_ms_p99", seen.late_ms_p99,
        "worst {:.1f} ms, attempt {}".format(max(loop.late_s) * 1e3,
                                             seen.attempt))
    put("bench.backlog_max", loop.backlog_max)
    # the rate is fixed by the schedule: overhead shows in latency
    put("bench.trace_overhead_ratio", recorder.trace_overhead("latency"))


def run(inputs, options, tracer):
    return asyncio.run(_run(inputs, options, tracer))
