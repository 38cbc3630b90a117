"""``reasoning_batch``: the paper's operators as a batch user runs them.

Closed loop, one thread, in-process, no store and no I/O. Jobs arrive
as wire strings; a reduce job decodes, reduces and re-encodes one PUL,
an aggregate job folds a chain of sequential PULs, an integrate job
reconciles parallel PULs with planted conflicts; every
``apply_every``-th job also applies its result to the document with the
streaming evaluator. One operation is one input PUL operation; one
latency sample is a job. The program keeps no log, so
``wal_bytes_per_op`` and ``recovery_s`` come from the restart probe:
every distinct job's result, logged against its own copy of the
document.
"""

import gc
import os
import subprocess
import sys
import time

import harness
import layers
import measure
from gen import sha256_text
from spans import self_times
from repro.aggregation import aggregate
from repro.apply import apply_in_memory, apply_streaming
from repro.apply.events import events_to_xml, parse_events
from repro.errors import ReproError
from repro.index import build_index
from repro.integration import reconcile
from repro.labeling import ContainmentLabeling
from repro.pul.serialize import pul_from_xml, pul_to_xml, tree_to_xml
from repro.reduction import canonical_form, reduce_pul
from repro.xdm.parser import parse_document


#: whether the program under test runs in this process (``run.py``
#: pins this process or the server subprocess accordingly)
IN_PROCESS = True


def run_job(job, text, apply, tracer):
    """Execute one job; returns ``(result PUL, result wire, applied
    document text or None)``."""
    call = tracer.call
    puls = [call("pul.decode", pul_from_xml, wire) for wire in job["puls"]]
    family = job["family"]
    if family == "reduce":
        result = call("reduction.reduce", reduce_pul, puls[0])
    elif family == "aggregate":
        merged = call("aggregation.aggregate", aggregate, puls)
        result = call("reduction.reduce", reduce_pul, merged)
    else:
        result = call("integration.reconcile", reconcile, puls,
                      policies={})
    wire = call("pul.encode", pul_to_xml, result)
    applied = None
    if apply:
        applied = call("apply.streaming", _apply, text, result)
    return result, wire, applied


def _apply(text, pul):
    return events_to_xml(apply_streaming(parse_events(text), pul))


def _setup(inputs, tracer):
    """The batch user's set-up: start an interpreter that imports the
    library, load the document, run the warm-up jobs."""
    with harness.Stopwatch() as timer:
        subprocess.run(
            [sys.executable, "-c", "import repro, repro.cli"], check=True,
            env=dict(os.environ, PYTHONPATH=harness.REPO_SRC))
        document = parse_document(inputs["doc"])
        labeling = ContainmentLabeling().build(document)
        build_index(document, labeling)
        for index, apply in inputs["schedule"][:inputs["warmup"]]:
            run_job(inputs["pool"][index], inputs["doc"], apply, tracer)
    return timer


def normal_form(pul):
    """Canonical form, modulo the order of the trees inside one
    insertion: two same-target insertions may be collapsed in either
    order (both are in the obtainable set), everything else about a
    reduction is pinned by Definition 9."""
    rows = []
    for op in canonical_form(pul):
        trees = (tuple(sorted(tree_to_xml(tree) for tree in op.trees))
                 if op.has_trees else ())
        rows.append((op.op_name, op.target, trees,
                     None if op.has_trees else op.parameter()))
    return sorted(rows, key=repr)


def verify(inputs, outcomes, result):
    """Compare every distinct executed job with the oracle.

    ``outcomes`` maps pool index to ``(result PUL, wire, applied text
    or None)`` of its first execution (repeats were compared with the
    first as they ran)."""
    text = inputs["doc"]
    for index, (pul, __, applied) in sorted(outcomes.items()):
        job = inputs["pool"][index]
        where = "{} job {}".format(job["family"], index)
        if job["family"] == "reduce":
            original = pul_from_xml(job["puls"][0])
            if normal_form(pul) != normal_form(original):
                result.mismatches.append(
                    where + ": reduction is not equivalent to its input")
        elif job["family"] == "aggregate":
            if sha256_text(apply_in_memory(text, pul)) != \
                    job["expected_sha"]:
                result.mismatches.append(
                    where + ": aggregate differs from the sequential "
                    "application")
        else:
            try:
                pul.check_compatible()
            except ReproError as error:
                result.mismatches.append(
                    "{}: reconciled PUL still conflicts ({})".format(
                        where, error))
        if applied is not None and applied != apply_in_memory(text, pul):
            result.mismatches.append(
                where + ": streaming and in-memory apply differ")


def run(inputs, options, tracer):
    result = harness.Result()
    pool, text = inputs["pool"], inputs["doc"]
    setups = [_setup(inputs, tracer)
              for __ in range(options.setup_repeats)]
    schedule = inputs["schedule"][inputs["warmup"]:]
    outcomes = {}

    recorder = measure.SliceRecorder(
        len(schedule), time.process_time,
        on_block=options.block_switch(tracer))
    clock = time.perf_counter
    gc.collect()
    recorder.begin()
    for number, (index, apply) in enumerate(schedule):
        job = pool[index]
        start = clock()
        try:
            with tracer.span("job." + job["family"], request=number):
                outcome = run_job(job, text, apply, tracer)
        except ReproError as error:
            result.failed += 1
            result.mismatches.append("job {}: {}".format(number, error))
            outcome = None
        recorder.done(clock() - start, job["family"], job["ops"])
        if outcome is None:
            continue
        first = outcomes.get(index)
        if first is None or (first[2] is None and outcome[2] is not None):
            outcomes[index] = outcome
        if first is not None and first[1] != outcome[1]:
            result.failed += 1
            result.mismatches.append(
                "job {}: result differs from the first run of the same "
                "input".format(number))
    tracer.enabled = False
    rss = measure.peak_rss_mb()
    result.attempted = len(schedule)
    verify(inputs, outcomes, result)

    summary = recorder.summary(options.probe.factor)
    samples = "{} jobs of {} PUL operations, {} per slice".format(
        len(schedule), recorder.ops, len(schedule) // measure.SLICES)
    harness.put_watches(result, "setup_s", setups, options.probe,
                        "complete set-ups")
    harness.put_timings(result, summary, samples)
    result.put("rss_mb", rss)
    if options.trace:
        _per_layer(inputs, recorder, tracer, result)
    else:
        _restart(inputs, options, outcomes, result)
    return result


def _restart(inputs, options, outcomes, result):
    """Log every distinct job's result (one PUL on the job document)
    against its own copy of the document, then restart."""
    logged = [(index, wire)
              for index, (__, wire, __a) in sorted(outcomes.items())]
    harness.restart_cost(
        options,
        [("job{}".format(index), inputs["doc"]) for index, __ in logged],
        [("job{}".format(index), "pul", wire) for index, wire in logged],
        result)


def _per_layer(inputs, recorder, tracer, result):
    """Per-layer figures from the traced jobs' own spans: each stage's
    span time over the operations that stage saw."""
    totals = self_times(tracer.spans)
    schedule = inputs["schedule"][inputs["warmup"]:]
    pool = inputs["pool"]
    # operations each stage handled, recounted per distinct job (the
    # pool is small and every stage is deterministic for an input)
    sizes = []
    for job in pool:
        puls = [pul_from_xml(wire) for wire in job["puls"]]
        if job["family"] == "reduce":
            reduced_in, out = len(puls[0]), len(reduce_pul(puls[0]))
        elif job["family"] == "aggregate":
            merged = aggregate(puls)
            reduced_in, out = len(merged), len(reduce_pul(merged))
        else:
            reduced_in, out = 0, len(reconcile(puls, policies={}))
        sizes.append({"in": job["ops"], "reduced_in": reduced_in,
                      "out": out})
    seen = dict.fromkeys(("reduce", "aggregate", "integrate", "decoded",
                          "reduced_in", "encoded", "applied"), 0)
    for span in tracer.spans:
        if not span[2].startswith("job."):
            continue
        index, apply = schedule[span[5]]
        size = sizes[index]
        seen[pool[index]["family"]] += size["in"]
        seen["decoded"] += size["in"]
        seen["reduced_in"] += size["reduced_in"]
        seen["encoded"] += size["out"]
        if apply:
            seen["applied"] += size["out"]

    def per_op(span_name, ops):
        total = totals.get(span_name, {"total_s": 0.0})["total_s"]
        return harness.ratio(total * 1e6, ops)

    put = result.put
    put("pul.decode_us_per_op", per_op("pul.decode", seen["decoded"]))
    put("pul.encode_us_per_op", per_op("pul.encode", seen["encoded"]))
    put("reduction.us_per_op",
        per_op("reduction.reduce", seen["reduced_in"]))
    reduce_jobs = [size for job, size in zip(pool, sizes)
                   if job["family"] == "reduce"]
    put("reduction.survivor_ratio", harness.ratio(
        sum(size["out"] for size in reduce_jobs),
        sum(size["in"] for size in reduce_jobs)))
    put("aggregation.us_per_op",
        per_op("aggregation.aggregate", seen["aggregate"]))
    put("integration.us_per_op",
        per_op("integration.reconcile", seen["integrate"]))
    put("apply.streaming_us_per_op",
        per_op("apply.streaming", seen["applied"]))
    result.put_all(layers.reasoning_layers(pool))
    result.put_all(layers.document_layers([inputs["doc"]]))
    result.put("bench.trace_overhead_ratio", recorder.trace_overhead())
    # the acceptance figure: share of traced job time spent in the
    # reasoning layers (pul + reduction + aggregation + integration)
    job_total = sum(entry["total_s"] for name, entry in totals.items()
                    if name.startswith("job."))
    reasoning = sum(totals.get(name, {"total_s": 0.0})["total_s"]
                    for name in ("pul.decode", "pul.encode",
                                 "reduction.reduce",
                                 "aggregation.aggregate",
                                 "integration.reconcile"))
    result.notes["reasoning share of traced job time"] = "{:.3f}".format(
        harness.ratio(reasoning, job_total))
