"""The cyclic collector: its time in metrics, and its pause across a
restore.

This module is the one place the library touches :mod:`gc`.

* :func:`watch_collections` installs one process-wide
  ``gc.callbacks`` hook that counts every collection and its seconds
  per generation; :func:`collection_counters` reads them back for the
  exposition (``repro_gc_collections_total`` /
  ``repro_gc_seconds_total``, appended the way ``repro_uptime_seconds``
  is: the collector is the process's, not one store's).
* :func:`collector_paused` runs a restore with the collector off.
  Everything a restore allocates stays alive, so a collection during
  one frees nothing and only walks the growing heap. The pause ends
  with one young-generation pass (``gc.collect(1)``) inside the same
  window, which moves the restored heap out of the young generations
  once, instead of leaving that walk to whatever allocates next.

The store's own garbage does not wait for the collector at all: it is
released by reference counting (store README, invariant 10), so the
pause defers nothing but the walks over live objects.
"""

from __future__ import annotations

import gc
import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import series_key

#: ``[collections, seconds]`` per generation since the hook went in
_collections = [[0, 0.0], [0, 0.0], [0, 0.0]]
#: ``perf_counter`` at the start of the running collection
_started = [0.0]
_hook_lock = threading.Lock()

#: nesting depth of :func:`collector_paused`, and whether its
#: outermost entry turned the collector off — module state, because
#: the collector it guards is the process's
_pause_lock = threading.Lock()
_pause = {"depth": 0, "disabled": False}


def _on_collection(phase, info):
    # the collector runs one collection at a time, holding the GIL
    if phase == "start":
        _started[0] = time.perf_counter()
    else:
        entry = _collections[info["generation"]]
        entry[0] += 1
        entry[1] += time.perf_counter() - _started[0]


def watch_collections():
    """Install the process-wide collection hook (idempotent)."""
    with _hook_lock:
        if _on_collection not in gc.callbacks:
            gc.callbacks.append(_on_collection)


def collection_counters():
    """``{series key: value}`` of ``repro_gc_collections_total`` and
    ``repro_gc_seconds_total`` per generation, since
    :func:`watch_collections`."""
    counters = {}
    for name, column in (("repro_gc_collections_total", 0),
                         ("repro_gc_seconds_total", 1)):
        for generation, entry in enumerate(_collections):
            counters[series_key(name, {"generation": generation})] = \
                round(entry[column], 6)
    return counters


def collection_text():
    """:func:`collection_counters` in Prometheus text exposition."""
    counters = collection_counters()
    lines = []
    for name, what in (("repro_gc_collections_total", "collections"),
                       ("repro_gc_seconds_total", "seconds")):
        lines.append("# HELP {} Cyclic-collector {} per generation "
                     "(process-wide)".format(name, what))
        lines.append("# TYPE {} counter".format(name))
        lines.extend("{} {}".format(key, value)
                     for key, value in counters.items()
                     if key.startswith(name + "{"))
    return "\n".join(lines) + "\n"


@contextmanager
def collector_paused():
    """Run the body with the cyclic collector off.

    Nested and concurrent pauses share one: the outermost entry turns
    the collector off — only if it was on, so a caller that disabled it
    keeps it disabled — and the last exit, also on an exception, runs
    one young-generation pass and turns it back on.
    """
    with _pause_lock:
        if _pause["depth"] == 0 and gc.isenabled():
            _pause["disabled"] = True
            gc.disable()
        _pause["depth"] += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause["depth"] -= 1
            if _pause["depth"] == 0 and _pause["disabled"]:
                _pause["disabled"] = False
                # the pass first: switched on first, the collector
                # could start a generation-0 pass over everything the
                # pause allocated at the very next allocation
                gc.collect(1)
                gc.enable()
