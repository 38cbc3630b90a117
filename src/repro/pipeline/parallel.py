"""Concurrent per-shard reduction — the store's reduction step.

:class:`ParallelReducer` reduces the shards produced by
:func:`~repro.pipeline.shard.shard_pul` with ``∆^H``
(:func:`~repro.reduction.engine.reduce_deterministic`) and returns them
in shard order. Two backends:

* ``thread`` — a :class:`concurrent.futures.ThreadPoolExecutor`, kept
  warm across calls;
* ``serial`` — an in-process loop.

A shard whose reduction raises fails the whole call: the exception
reaches the caller (the store's flush, which turns it into a no-op
batch).
"""

from __future__ import annotations

import concurrent.futures
import threading

from repro.errors import ReproError
from repro.reduction.engine import reduce_deterministic

_BACKENDS = ("thread", "serial")


class ParallelReducer:
    """Reduce shards concurrently.

    Parameters
    ----------
    workers:
        Worker count (also the store's default shard count).
    backend:
        ``thread`` or ``serial``.
    """

    def __init__(self, workers=2, backend="thread"):
        if backend not in _BACKENDS:
            raise ReproError(
                "unknown pipeline backend {!r} (use one of {})".format(
                    backend, "/".join(_BACKENDS)))
        if workers < 1:
            raise ReproError("workers must be >= 1, got {}".format(workers))
        self.workers = workers
        self.backend = backend
        self._pool = None
        # the store's flushes of different documents share one reducer
        self._pool_lock = threading.Lock()

    def close(self):
        """Shut the warm pool down (idempotent; the next call re-warms)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def reduce_shards(self, shards):
        """Reduce ``shards``; returns the reduced shards in shard order."""
        if self.backend == "serial" or len(shards) == 1:
            return [reduce_deterministic(shard) for shard in shards]
        with self._pool_lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.workers)
            pool = self._pool
        return list(pool.map(reduce_deterministic, shards))
