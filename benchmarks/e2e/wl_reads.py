"""``indexed_reads``: path queries against many resident documents, over
the wire.

Closed loop: one ``repro store serve`` subprocess on a Unix socket, no
WAL; one asyncio generator process with two ``AsyncStoreClient``
connections (protocol v2), four requests in flight on each. Documents
are chosen Zipf(1.0), so hot and cold documents exist. One operation
is one request, timed from send to response. The server keeps no log,
so ``wal_bytes_per_op`` and ``recovery_s`` come from the restart probe:
a few logged writes to each distinct document, in process.
"""

import asyncio
import gc
import time

import config
import harness
import measure
import wire


#: whether the program under test runs in this process (``run.py``
#: pins this process or the server subprocess accordingly)
IN_PROCESS = False


def doc_id(index):
    distinct = config.READS["distinct"]
    return "d{}c{}".format(index % distinct, index // distinct)


def resident_documents(inputs):
    count = config.READS["distinct"] * config.READS["copies"]
    return [(doc_id(index),
             inputs["docs"][index % config.READS["distinct"]])
            for index in range(count)]


async def _issue_all(clients, requests, first_number, tracer, on_done,
                     failures):
    """Closed loop: ``depth`` workers per connection, each sending its
    connection's next request as soon as its previous one returned."""
    clock = time.perf_counter

    async def worker(client, queue):
        for number, (kind, index, path) in queue:
            start = clock()
            try:
                with tracer.span("op." + kind, request=number):
                    answer = await wire.read(client, tracer, kind,
                                             doc_id(index), path)
            except Exception as error:   # any failed request is counted
                failures.append("request {}: {!r}".format(number, error))
                answer = None
            on_done(number, clock() - start, kind, answer)

    numbered = list(enumerate(requests, first_number))
    tasks = []
    for slot, client in enumerate(clients):
        queue = iter(numbered[slot::len(clients)])
        tasks.extend(asyncio.ensure_future(worker(client, queue))
                     for __ in range(config.READS["depth"]))
    await asyncio.gather(*tasks)


async def _setup(inputs, options, tracer):
    """Spawn the server, open every document, run the warm-up
    requests. Returns ``(server, clients, set-up timer)``."""
    directory = options.scratch("server")
    with harness.Stopwatch() as timer:
        server = harness.Server(directory, cpu=options.program_cpu)
        try:
            clients = await wire.connect(
                server, config.READS["connections"])
            await wire.open_documents(clients, resident_documents(inputs))
            failures = []
            await _issue_all(
                clients, inputs["requests"][:inputs["warmup"]], 0, tracer,
                lambda *args: None, failures)
            if failures:
                raise RuntimeError("warm-up failed: " + failures[0])
        except BaseException:
            server.stop()
            raise
    return server, clients, timer


async def _run(inputs, options, tracer):
    result = harness.Result()
    setups = []
    server = clients = None
    for __ in range(options.setup_repeats):
        if server is not None:
            await wire.close_all(clients)
            server.stop()
        server, clients, timer = await _setup(inputs, options, tracer)
        setups.append(timer)
    try:
        await _measure(inputs, options, tracer, result, server, clients,
                       setups)
    finally:
        await wire.close_all(clients)
        server.stop()
    return result


async def _measure(inputs, options, tracer, result, server, clients,
                   setups):
    warmup = inputs["warmup"]
    requests = inputs["requests"][warmup:]
    every = config.SAMPLE_EVERY if options.trace else 100
    sampled = {}
    failures = []

    recorder = measure.SliceRecorder(
        len(requests), server.cpu_s, on_block=options.block_switch(tracer))

    def on_done(number, latency, kind, answer):
        recorder.done(latency, kind)
        if (number - warmup) % every == 0 and answer is not None:
            sampled[number - warmup] = answer

    before = await clients[0].metrics()
    gc.collect()
    recorder.begin()
    await _issue_all(clients, requests, warmup, tracer, on_done, failures)
    tracer.enabled = False
    rss = measure.peak_rss_mb(server.pid)
    after = await clients[0].metrics()
    result.attempted = len(requests)
    result.failed = len(failures)
    result.mismatches.extend(failures)

    # one per cent of the requests are re-run on the oracle, which
    # holds one copy of each distinct document (the copies are equal)
    distinct = config.READS["distinct"]
    texts = {doc_id(index): text
             for index, text in enumerate(inputs["docs"])}
    oracle_sample = [
        (requests[i][0], doc_id(requests[i][1] % distinct), requests[i][2],
         answer)
        for i, answer in sorted(sampled.items()) if i % 100 == 0]
    wire.check_reads(texts, oracle_sample, result)

    summary = recorder.summary(options.probe.factor)
    samples = "{} requests, {} per slice".format(
        len(requests), len(requests) // measure.SLICES)
    harness.put_watches(result, "setup_s", setups, options.probe,
                        "complete set-ups")
    harness.put_timings(result, summary, samples)
    result.put("rss_mb", rss, "{} resident documents".format(
        distinct * config.READS["copies"]))
    if options.trace:
        rtt = await wire.noop_rtt_us(clients[0], doc_id(0))
        _per_layer(inputs, recorder, summary, result, before, after,
                   requests, sampled, rtt)


def _per_layer(inputs, recorder, summary, result, before, after, requests,
               sampled, rtt):
    order = sorted(sampled)
    distinct = config.READS["distinct"]
    # the copies of a document are identical: replay on the originals
    sample = [[kind, index % distinct, path]
              for kind, index, path in (requests[i] for i in order)]
    wire.put_read_layers(result, inputs["docs"], sample,
                         [sampled[i] for i in order], doc_id, before, after)
    wire.put_api_layers(result, summary, recorder, rtt)
    reads = recorder.latencies
    result.put("api.read_p50_ms", measure.percentile(reads, 50) * 1e3)
    result.put("api.read_p99_ms", measure.percentile(reads, 99) * 1e3,
               "{} requests".format(len(reads)))
    result.put("bench.trace_overhead_ratio", recorder.trace_overhead())


def run(inputs, options, tracer):
    result = asyncio.run(_run(inputs, options, tracer))
    if not options.trace:
        options.join_program_cpu()
        harness.restart_cost(
            options,
            [(doc_id(index), text)
             for index, text in enumerate(inputs["docs"])],
            [(doc_id(index), "xquery", expression)
             for index, expression in inputs["restart_writes"]], result)
    return result
