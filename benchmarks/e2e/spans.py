"""In-memory spans recorded from the benchmark's side of every call.

The program is traced from outside: the driver wraps the public calls
it makes (store methods, client coroutines, reasoning entry points) in
spans kept in a list and written out once, when the run ends. A span is
``(id, parent, name, start, end, request)``; the parent is whatever
span was open in the same thread or asyncio task when it started.
"""

import contextvars
import itertools
import json
import time
from contextlib import contextmanager

_CURRENT = contextvars.ContextVar("e2e_current_span", default=None)


class Tracer:
    """Span sink. ``enabled`` is flipped per slice by the workloads so
    the traced and untraced halves of one run can be compared."""

    def __init__(self, clock=time.perf_counter):
        self.enabled = False
        self.spans = []
        self._clock = clock
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name, request=None):
        if not self.enabled:
            yield None
            return
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = self._clock()
        try:
            yield span_id
        finally:
            end = self._clock()
            _CURRENT.reset(token)
            # list.append is atomic: writer threads share the sink
            self.spans.append((span_id, parent, name, start, end, request))

    def call(self, name, function, *args, **kwargs):
        """``function(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return function(*args, **kwargs)
        with self.span(name):
            return function(*args, **kwargs)

    async def acall(self, name, coroutine_function, *args, **kwargs):
        """Awaited ``coroutine_function(...)`` inside a span."""
        if not self.enabled:
            return await coroutine_function(*args, **kwargs)
        with self.span(name):
            return await coroutine_function(*args, **kwargs)

    def dump(self, path, meta=None):
        """Write every span (times relative to the first start)."""
        origin = min((span[3] for span in self.spans), default=0.0)
        payload = {
            "meta": meta or {},
            "self_time_s": self_times(self.spans),
            "spans": [
                {"id": span_id, "parent": parent, "name": name,
                 "start_s": round(start - origin, 7),
                 "end_s": round(end - origin, 7), "request": request}
                for span_id, parent, name, start, end, request
                in self.spans],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def _covered(intervals, low, high):
    """Length of ``[low, high]`` covered by the union of
    ``intervals``."""
    covered = 0.0
    edge = low
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, high)
        if end > start:
            covered += end - start
            edge = end
    return covered


def self_times(spans):
    """``{name: {"count", "total_s", "self_s"}}``: a span's self time
    is its duration minus the part of that interval its child spans
    cover (overlapping children — pipelined requests — count once)."""
    children = {}
    for __, parent, __name, start, end, __request in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for span_id, __, name, start, end, __request in spans:
        entry = totals.setdefault(
            name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - _covered(
            children.get(span_id, ()), start, end)
    return totals
