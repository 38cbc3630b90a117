"""Slow-query / slow-flush log.

Requests that cross their threshold are recorded as structured entries
— JSON-representable dicts kept in a bounded in-memory ring and, when
a path is configured, appended as JSONL (one object per line, append-
only, safe to tail). Slow queries embed the exact plan the cost-based
planner recorded for that execution (the same shape ``explain``
returns), so a slow entry answers "which route did it take and why"
without re-running anything; slow flushes embed the per-stage timing
map (coalesce / log / wal-append / fsync-wait / reduce / copy / apply
/ relabel / index-derive / publish / snapshot).

Thresholds default to ``None`` — disabled. The hot-path cost of a
disabled log is one comparison.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

#: Default number of entries retained in memory.
DEFAULT_CAPACITY = 256


class SlowLog:
    """Threshold-gated structured log of slow queries and flushes."""

    def __init__(self, slow_query_s=None, slow_flush_s=None, path=None,
                 capacity=DEFAULT_CAPACITY):
        self.slow_query_s = slow_query_s
        self.slow_flush_s = slow_flush_s
        self.path = path
        self._lock = threading.Lock()
        self._ring = deque(maxlen=capacity)

    # -- recording -----------------------------------------------------------

    def note_query(self, doc_id, path, duration_s, plan,
                   trace_id=None):
        """Record a query if it crossed ``slow_query_s``; ``plan`` is
        the planner's recorded plan for this execution."""
        if self.slow_query_s is None or duration_s < self.slow_query_s:
            return False
        self._record({"kind": "query", "ts": time.time(),
                      "doc_id": doc_id, "path": path,
                      "duration_s": round(duration_s, 9),
                      "trace_id": trace_id, "plan": plan})
        return True

    def note_flush(self, doc_id, version, duration_s, stages,
                   trace_id=None):
        """Record a flush if it crossed ``slow_flush_s``; ``stages``
        maps stage name -> seconds."""
        if self.slow_flush_s is None or duration_s < self.slow_flush_s:
            return False
        self._record({"kind": "flush", "ts": time.time(),
                      "doc_id": doc_id, "version": version,
                      "duration_s": round(duration_s, 9),
                      "trace_id": trace_id,
                      "stages": {name: round(value, 9)
                                 for name, value in stages.items()}})
        return True

    def _record(self, entry):
        with self._lock:
            self._ring.append(entry)
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry, sort_keys=True))
                    handle.write("\n")

    # -- reads ---------------------------------------------------------------

    def recent(self, limit=None):
        """Most recent entries, newest last."""
        with self._lock:
            entries = list(self._ring)
        if limit is not None:
            entries = entries[-int(limit):]
        return entries
