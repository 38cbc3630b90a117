"""Observability layer: metrics registry, request tracing, slow log.

One :class:`StoreObs` per :class:`~repro.store.store.DocumentStore`
bundles the three instruments every subsystem shares:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  fixed-bucket latency histograms (a :class:`NullRegistry` when the
  store is built with ``metrics=False``, so instrumentation sites cost
  one no-op call);
* :class:`~repro.obs.tracing.Tracer` — contextvar-propagated span
  trees for requests that carry a trace id, with a ring buffer of
  recent traces;
* :class:`~repro.obs.slowlog.SlowLog` — threshold-gated JSONL log of
  slow queries (with their recorded plans) and slow flushes (with
  per-stage timings).

The cyclic collector's collections and seconds per generation are the
process's, not one store's: one ``gc.callbacks`` hook
(:mod:`repro.obs.collector`) counts them, and every enabled store's
exposition appends them the way it appends its uptime.

The store owns the facade (``store.obs``); the server, durability
manager and replication feed reach it through the store, so the whole
process shares one registry and one trace ring. See ``README.md`` in
this package for the metric name table and exposition formats.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager

from repro.obs.collector import (
    collection_counters,
    collection_text,
    watch_collections,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    percentile_from_buckets,
    series_key,
)
from repro.obs.slowlog import SlowLog
from repro.obs.tracing import _ACTIVE, _Span, Tracer, new_trace_id

__all__ = [
    "DEFAULT_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "SlowLog",
    "StoreObs",
    "Tracer",
    "new_trace_id",
    "percentile_from_buckets",
    "series_key",
]


#: ambient per-flush stage-timing sink (set by
#: :meth:`StoreObs.collect_stages`, fed by :meth:`StoreObs.stage`);
#: a contextvar for the same reason the tracer uses one — each request
#: runs synchronously on one worker thread, so no signatures change
_STAGES = contextvars.ContextVar("repro_flush_stages", default=None)


class _StageTimer:
    """Class-based context manager for one flush stage.

    The flush hot path opens several of these per batch, so the
    generator-contextmanager machinery is deliberately avoided: enter
    is two ContextVar reads and a ``perf_counter``, exit one
    ``perf_counter`` plus the (no-op when disabled) histogram
    observe — measured at well under a microsecond per stage against
    tens with the generator form.
    """

    __slots__ = ("_name", "_hist", "_active", "_span", "_start")

    def __init__(self, name, hist):
        self._name = name
        self._hist = hist

    def __enter__(self):
        active = _ACTIVE.get()
        self._active = active
        if active is not None:
            span = _Span(self._name)
            stack = active.stack
            stack[-1].children.append(span)
            stack.append(span)
            self._span = span
        self._start = time.perf_counter()
        return None

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self._start
        active = self._active
        if active is not None:
            self._span.duration_s = elapsed
            active.stack.pop()
        sink = _STAGES.get()
        if sink is not None:
            sink[self._name] = sink.get(self._name, 0.0) + elapsed
        self._hist.observe(elapsed)
        return False


class StoreObs:
    """Per-store observability facade: registry + tracer + slow log."""

    def __init__(self, enabled=True, slow_query_s=None,
                 slow_flush_s=None, slow_log_path=None,
                 trace_capacity=None):
        self.enabled = bool(enabled)
        self.registry = MetricsRegistry() if enabled else NullRegistry()
        self.tracer = (Tracer() if trace_capacity is None
                       else Tracer(capacity=trace_capacity))
        self.slowlog = SlowLog(slow_query_s=slow_query_s,
                               slow_flush_s=slow_flush_s,
                               path=slow_log_path)
        self._stage_hists = {}
        if self.enabled:
            watch_collections()
        self._started_monotonic = time.monotonic()
        self.started_at = time.time()

    # -- convenience pass-throughs (the instrumented modules only ever
    # -- hold a StoreObs reference) ------------------------------------------

    def counter(self, name, help_text="", **labels):
        return self.registry.counter(name, help_text, **labels)

    def gauge(self, name, help_text="", **labels):
        return self.registry.gauge(name, help_text, **labels)

    def histogram(self, name, help_text="", buckets=DEFAULT_BUCKETS,
                  **labels):
        return self.registry.histogram(name, help_text,
                                       buckets=buckets, **labels)

    def span(self, name):
        return self.tracer.span(name)

    def run_traced(self, trace_id, name, fn):
        return self.tracer.run_traced(trace_id, name, fn)

    # -- flush stage timing --------------------------------------------------

    @contextmanager
    def collect_stages(self):
        """Run a flush with an ambient stage-timing sink; yields the
        dict that :meth:`stage` blocks (in this flush, any layer) fill
        with ``stage name -> seconds`` — the slow-flush log's payload."""
        sink = {}
        if self.slowlog.slow_flush_s is None:
            # nothing reads the sink when no slow-flush threshold is
            # armed: skip the ContextVar set/reset and let every
            # stage's sink lookup short-circuit on None
            yield sink
            return
        token = _STAGES.set(sink)
        try:
            yield sink
        finally:
            _STAGES.reset(token)

    def stage(self, name):
        """Time one flush stage: opens a trace span, feeds the ambient
        stage sink (when a :meth:`collect_stages` flush is running) and
        the per-stage latency histogram."""
        hist = self._stage_hists.get(name)
        if hist is None:
            hist = self.registry.histogram(
                "repro_store_flush_stage_seconds",
                "Per-stage flush latency", stage=name)
            self._stage_hists[name] = hist
        return _StageTimer(name, hist)

    def recovery_stage(self, name):
        """Time one restart stage — ``load`` (read the directory),
        ``restore`` (rebuild the snapshot's documents), ``replay`` (the
        record tail) — into ``repro_store_recovery_stage_seconds``."""
        return _StageTimer(name, self.recovery_histogram(name))

    def recovery_histogram(self, name):
        """The ``repro_store_recovery_stage_seconds`` series of
        ``stage=name`` (``collect`` is observed directly: it is the
        exit of the collector pause, not a block)."""
        return self.registry.histogram(
            "repro_store_recovery_stage_seconds",
            "Per-stage restart latency", stage=name)

    def snapshot_histogram(self, name):
        """The ``repro_store_snapshot_stage_seconds`` series of
        ``stage=name``, observed once per snapshot compaction:
        ``capture`` (the documents' payloads), ``encode`` (each into its
        framed ``open`` record), ``write`` (the file, its fsync and its
        rename) and ``compact`` (seal the segment, delete what the
        snapshot supersedes). Capture and encode run inside the write, one
        document at a time; the write's seconds leave them out."""
        return self.registry.histogram(
            "repro_store_snapshot_stage_seconds",
            "Per-stage snapshot compaction latency", stage=name)

    def open_stage(self, name):
        """Time one step of opening a document — ``parse`` (text to
        tree, ids assigned), ``label`` (the bulk-load labeling),
        ``index`` (the secondary index) — into
        ``repro_store_open_stage_seconds``, once per document."""
        return _StageTimer(name, self.open_histogram(name))

    def open_histogram(self, name):
        """The ``repro_store_open_stage_seconds`` series of
        ``stage=name`` (``log`` is observed directly: one append carries
        a whole chunk's ``open`` records, and each document is observed
        with its share)."""
        return self.registry.histogram(
            "repro_store_open_stage_seconds",
            "Per-stage document open latency", stage=name)

    def uptime_seconds(self):
        return time.monotonic() - self._started_monotonic

    # -- reads ---------------------------------------------------------------

    def snapshot(self, traces=None, slow=None):
        """The ``metrics`` op result: metric series plus uptime, and
        optionally the last ``traces`` span trees / ``slow`` log
        entries."""
        payload = self.registry.snapshot()
        if self.enabled:
            payload["counters"].update(collection_counters())
        payload["uptime_seconds"] = round(self.uptime_seconds(), 3)
        payload["metrics_enabled"] = self.enabled
        if traces:
            payload["traces"] = self.tracer.recent(limit=traces)
        if slow:
            payload["slow"] = self.slowlog.recent(limit=slow)
        return payload

    def render_text(self):
        """Prometheus text exposition, uptime and (when enabled) the
        collector's series included."""
        text = self.registry.render_text()
        if self.enabled:
            text += collection_text()
        uptime = ("# TYPE repro_uptime_seconds gauge\n"
                  "repro_uptime_seconds {}\n".format(
                      round(self.uptime_seconds(), 3)))
        return text + uptime
