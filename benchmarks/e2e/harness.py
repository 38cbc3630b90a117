"""What the workloads share: the metric catalogue (read from
``BENCHMARK.json``), run options, the result record, the server
subprocess, restart timing, and reading the program's public metrics."""

import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import config
import layers
import measure
from repro.obs import percentile_from_buckets, series_key
from repro.pul.serialize import pul_from_xml
from repro.store import DocumentStore

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
REPO_SRC = os.path.join(ROOT, "src")


@functools.lru_cache(maxsize=None)
def manifest():
    """``BENCHMARK.json``: the one list of workloads, metric names,
    units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def metric_names(section):
    """Names of the ``end_to_end`` or ``per_layer`` metrics, in the
    manifest's order."""
    return [entry["name"] for entry in manifest()[section]]


def unit(name):
    for section in ("end_to_end", "per_layer"):
        for entry in manifest()[section]:
            if entry["name"] == name:
                return entry["unit"]
    raise KeyError("BENCHMARK.json lists no metric {!r}".format(name))


class Options:
    """One run's settings (built by ``run.py``)."""

    def __init__(self, workload, seed, seconds, trace, smoke, out_dir,
                 program_cpu=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        #: the CPU the program under test is pinned to (``None``: not
        #: pinned); the generator runs on the others
        self.program_cpu = program_cpu
        #: the :class:`measure.SpeedProbe` (``start_probe``)
        self.probe = None
        #: this run's own directory under ``out/``
        self._run_dir = os.path.join(
            out_dir, "run-{}-{}".format(workload, os.getpid()))
        #: set-ups measured per run; the traced run and the smoke run
        #: report no ``setup_s`` worth gating, so they set up once
        self.setup_repeats = (1 if trace or smoke
                              else config.SETUP_REPEATS)

    def scratch(self, name):
        """A fresh directory for this run under ``out/``, relative to
        the working directory when possible (Unix socket paths are
        limited to ~100 bytes, checkouts can live anywhere)."""
        path = os.path.join(self._run_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        relative = os.path.relpath(path)
        return relative if len(relative) < len(path) else path

    def start_probe(self):
        self.probe = measure.SpeedProbe(
            os.path.join(self.scratch("probe"), "samples"),
            self.program_cpu)

    def join_program_cpu(self):
        """Move this process onto the program's CPU: a served workload
        does so once its server is gone, before it restarts the store
        in process."""
        if self.program_cpu is not None:
            measure.pin(0, {self.program_cpu})

    def cleanup(self):
        if self.probe is not None:
            self.probe.stop()
        shutil.rmtree(self._run_dir, ignore_errors=True)

    def block_switch(self, tracer):
        """The recorder's ``on_block`` hook: a traced run records spans
        in even blocks only, so the traced and untraced halves of one
        run can be compared."""
        def on_block(index):
            tracer.enabled = self.trace and index % 2 == 0
        return on_block


class Result:
    """Everything one run reports."""

    def __init__(self):
        self.metrics = {}        # name -> (value, unit)
        self.timings = {}        # name -> {"raw": .., "rescaled": ..}
        self.notes = {}          # name -> free text (sample counts)
        self.attempted = 0
        self.failed = 0
        self.mismatches = []     # oracle disagreements, human readable

    def put(self, name, value, note=None):
        """Record one metric of the manifest (which knows its unit)."""
        self.metrics[name] = (float(value), unit(name))
        if note is not None:
            self.notes[name] = note

    def put_timing(self, name, raw, rescaled, note):
        """Record a timing both ways: the rescaled figure is the
        reported one, the note shows the measured one."""
        self.timings[name] = {"raw": raw, "rescaled": rescaled}
        self.put(name, rescaled, "raw {:.4g}; {}".format(raw, note))

    def put_all(self, metrics):
        for name, value in metrics.items():
            self.put(name, value)

    @property
    def correct(self):
        return not self.mismatches and self.failed == 0


class Stopwatch:
    """Times one stretch of wall clock: ``seconds``, and the
    ``(start, end)`` window the speed probe is asked about."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.end = time.perf_counter()
        self.seconds = self.end - self.start
        return False


def put_watches(result, name, watches, probe, note):
    """A metric that is the median of a few timed stretches
    (``setup_s``, ``recovery_s``)."""
    result.put_timing(
        name, statistics.median(w.seconds for w in watches),
        statistics.median(w.seconds / probe.factor(w.start, w.end)
                          for w in watches),
        "median of {}: {}; {}".format(len(watches), " ".join(
            "{:.3f}".format(w.seconds) for w in watches), note))


def put_timings(result, summary, samples):
    """The four slice-median timing metrics of the timed phase,
    per-slice values in the notes."""
    for name in ("ops_per_s", "p50_ms", "p90_ms", "cpu_ms_per_op"):
        result.put_timing(
            name, summary["raw"][name], summary["rescaled"][name],
            "{}; slices {}".format(samples, " ".join(
                "{:.4g}".format(value)
                for value in summary["per_slice"][name])))
    result.notes["speed factor per slice"] = " ".join(
        "{:.3f}".format(value)
        for value in summary["per_slice"]["speed_factor"])


class Server:
    """One ``repro store serve`` subprocess on a Unix socket, pinned to
    ``cpu`` when given."""

    def __init__(self, directory, cpu=None, wal_dir=None, durability=None):
        self.socket_path = os.path.join(directory, "s.sock")
        command = [sys.executable, "-m", "repro.cli", "store", "serve",
                   "--listen", "unix:" + self.socket_path,
                   "--workers", "1", "--backend", "serial"]
        if wal_dir is not None:
            command += ["--wal-dir", wal_dir, "--durability", durability]
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [REPO_SRC] + [p for p in (environment.get("PYTHONPATH"),) if p])
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=environment, text=True)
        try:
            if cpu is not None:
                measure.pin(self.process.pid, {cpu})
            # blocking read: the server prints the line once it listens
            line = self.process.stdout.readline()
            if not line.startswith("listening"):
                raise RuntimeError(
                    "server did not start (first line {!r})".format(line))
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self):
        return self.process.pid

    def cpu_s(self):
        return measure.proc_cpu_s(self.pid)

    def stop(self):
        """SIGTERM, then wait until the process has ended."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        return self.process.returncode


# -- restart ------------------------------------------------------------------


def open_durable(wal_dir, spec):
    """The in-process store every workload restarts: one pipeline
    worker, serial backend, every flush fsynced before it returns."""
    return DocumentStore(durability=spec, wal_dir=wal_dir, workers=1,
                         backend="serial", group_window=0)


def timed_restarts(wal_dir, spec, check, restarts):
    """Construct a new store on ``wal_dir`` ``restarts`` times
    (recovering a cleanly closed directory writes nothing, so every
    restart replays the same records) and return ``(stopwatches,
    recovery report)``. ``check(store)`` compares the first recovered
    store with the oracle."""
    watches = []
    report = None
    for attempt in range(restarts):
        with Stopwatch() as watch:
            store = open_durable(wal_dir, spec)
        watches.append(watch)
        try:
            if attempt == 0:
                check(store)
                report = store.recovery
        finally:
            store.close()
    return watches, report


def restart_cost(options, documents, writes, result):
    """``wal_bytes_per_op`` and ``recovery_s`` of a workload whose
    program keeps no log: what a durable deployment of the workload's
    own documents would pay. ``documents`` (``[(doc id, xml)]``) are
    opened in an in-process ``durability="log"`` store, ``writes``
    (``[(doc id, "pul" | "xquery", text)]``) are each submitted and
    flushed (acknowledged durable), then the store is restarted like
    the durable workloads restart theirs; every recovered text must
    equal the text before the restart."""
    wal_dir = options.scratch("restart")
    store = open_durable(wal_dir, "log")
    try:
        for doc_id, xml in documents:
            store.open(doc_id, xml)
        before = store.metrics_snapshot()
        pul_ops = 0
        for doc_id, kind, text in writes:
            if kind == "xquery":
                pul_ops += store.submit_xquery(doc_id, text)[1]
            else:
                pul = pul_from_xml(text)
                pul_ops += len(pul)
                store.submit(doc_id, pul)
            store.flush(doc_id)
        after = store.metrics_snapshot()
        texts = {doc_id: store.text(doc_id) for doc_id, __ in documents}
    finally:
        store.close()

    def check(recovered):
        for doc_id, text in texts.items():
            if recovered.text(doc_id) != text:
                result.mismatches.append(
                    "restart probe: recovered text of {} differs".format(
                        doc_id))

    watches, __ = timed_restarts(wal_dir, "log", check,
                                 config.PROBE_RESTARTS)
    note = "{} documents, {} logged writes of {} PUL operations".format(
        len(documents), len(writes), pul_ops)
    result.put("wal_bytes_per_op", ratio(
        counter_delta(after, before, "repro_wal_bytes_total"), pul_ops),
        note)
    put_watches(result, "recovery_s", watches, options.probe, note)


# -- reading the program's metrics snapshot ----------------------------------


def counter(snapshot, key):
    return snapshot["counters"].get(key, 0)


def counter_delta(after, before, key):
    return counter(after, key) - counter(before, key)


def histogram(snapshot, key):
    """``(sum, count)`` of one histogram series (zeros if absent)."""
    series = snapshot["histograms"].get(key)
    if series is None:
        return 0.0, 0
    return series["sum"], series["count"]


def histogram_delta(after, before, key):
    total_a, count_a = histogram(after, key)
    total_b, count_b = histogram(before, key)
    return total_a - total_b, count_a - count_b


def histogram_percentile(after, before, key, q):
    """Quantile ``q`` (0..1, in seconds) of the observations made
    between two snapshots of one histogram series; 0 when there were
    none."""
    series = after["histograms"].get(key)
    if series is None:
        return 0.0
    counts = list(series["counts"])
    earlier = before["histograms"].get(key)
    if earlier is not None:
        counts = [a - b for a, b in zip(counts, earlier["counts"])]
    if sum(counts) <= 0:
        return 0.0
    return percentile_from_buckets(series["buckets"], counts, q)


def stage_key(stage):
    return series_key("repro_store_flush_stage_seconds", {"stage": stage})


def op_key(op):
    return series_key("repro_store_op_latency_seconds", {"op": op})


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def directory_bytes(path):
    return sum(os.path.getsize(os.path.join(path, name))
               for name in os.listdir(path))


def put_durable(result, seen, probe):
    """``wal_bytes_per_op`` and ``recovery_s`` of the two workloads
    whose program keeps a log. ``seen`` carries the metric snapshots
    ``before`` / ``after`` the timed phase, the flushed ``pul_ops``,
    and the ``restarts`` (stopwatches) with their ``report``."""
    # the program's own counter of WAL record payload: exact for a seed
    result.put("wal_bytes_per_op", ratio(
        counter_delta(seen.after, seen.before, "repro_wal_bytes_total"),
        seen.pul_ops), "{} flushed PUL operations".format(seen.pul_ops))
    put_watches(result, "recovery_s", seen.restarts, probe,
                "{} documents + {} batches replayed".format(
                    len(seen.report.documents),
                    seen.report.replayed_batches))


def put_store_layers(result, seen):
    """The write-side per-layer figures two workloads read the same way
    from the program's public surfaces. Beyond :func:`put_durable`,
    ``seen`` carries per-document ``stats``, ``snapshot_ms``,
    ``stored_bytes`` / ``doc_bytes`` of the WAL directory and the
    resident texts, and the ``wal_dir``."""
    after, before = seen.after, seen.before
    flushes = counter_delta(after, before, "repro_store_flushes_total")
    submit_s, submits = histogram_delta(after, before, op_key("submit"))
    open_s, opens = histogram(after, op_key("open"))
    append_s, appends = histogram_delta(after, before,
                                        stage_key("wal-append"))
    put = result.put
    put("store.submit_us", ratio(submit_s * 1e6, submits))
    put("store.ops_per_flush", ratio(seen.pul_ops, flushes))
    put("store.open_ms_per_doc", ratio(open_s * 1e3, opens))
    put("labeling.full_relabels",
        sum(entry["full_relabels"] for entry in seen.stats))
    put("labeling.incremental_relabels",
        sum(entry["incremental_relabels"] for entry in seen.stats))
    put("labeling.max_code_length",
        max(entry["max_code_length"] for entry in seen.stats))
    put("durability.fsyncs_per_flush", ratio(
        counter_delta(after, before, "repro_wal_fsyncs_total"), flushes))
    put("durability.append_us", ratio(append_s * 1e6, appends))
    put("durability.snapshots",
        counter_delta(after, before, "repro_wal_rotations_total"))
    put("durability.snapshot_ms", seen.snapshot_ms)
    documents = len(seen.report.documents)
    batches = seen.report.replayed_batches
    put("durability.recovery_us_per_record",
        ratio(statistics.median(w.seconds for w in seen.restarts) * 1e6,
              documents + batches),
        "{} documents + {} batches".format(documents, batches))
    put("durability.stored_bytes_per_doc_byte",
        ratio(seen.stored_bytes, seen.doc_bytes))
    result.put_all(layers.fsync_probe(seen.wal_dir))
