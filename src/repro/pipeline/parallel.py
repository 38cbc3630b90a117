"""Concurrent per-shard reduction.

:class:`ParallelReducer` reduces the shards produced by
:func:`~repro.pipeline.shard.shard_pul` concurrently and returns them in
shard order. Three backends:

* ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`; shards
  travel pickled (they carry their own labels, so workers reason through a
  :class:`~repro.reasoning.oracle.LabelOracle` without any document);
* ``thread``  — a :class:`concurrent.futures.ThreadPoolExecutor`; useful
  when the reduction is dominated by releasing-the-GIL work or for
  deterministic in-process testing with real concurrency;
* ``serial``  — an in-process loop (baseline and fallback).

A worker failing mid-batch (a crashed process, a poisoned shard, a broken
pool) does not fail the batch: the affected shards are recomputed
in-process and the incident is recorded on the returned
:class:`ReduceOutcome`, so callers can observe degraded-mode execution.
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

from repro.errors import ReproError
from repro.pipeline.shard import shard_pul
from repro.reduction.engine import reduce_deterministic, reduce_pul

_BACKENDS = ("process", "thread", "serial")


def _reduce_shard(shard, deterministic):
    """Module-level worker entry point (must be picklable for the process
    backend). Reduces one shard against its own carried labels."""
    if deterministic:
        return reduce_deterministic(shard)
    return reduce_pul(shard)


def _reduce_shard_wire(payload, deterministic):
    """Wire-mode worker: one serialized shard in, one serialized reduced
    shard out. Strings cross the process boundary at memcpy speed, so the
    XML decode + reduce + encode — the whole job of a distributed
    reduction worker — runs on the worker's core."""
    from repro.pul.serialize import pul_from_xml, pul_to_xml
    return pul_to_xml(_reduce_shard(pul_from_xml(payload), deterministic))


class ShardFailure:
    """One worker failure the reducer recovered from."""

    __slots__ = ("shard_index", "error")

    def __init__(self, shard_index, error):
        self.shard_index = shard_index
        self.error = error

    def __repr__(self):
        return "ShardFailure(shard={}, error={!r})".format(
            self.shard_index, self.error)


class ReduceOutcome:
    """Per-shard reduction results, in shard order, plus telemetry."""

    __slots__ = ("shards", "reduced", "failures", "backend", "workers")

    def __init__(self, shards, reduced, failures, backend, workers):
        self.shards = shards
        self.reduced = reduced
        self.failures = failures
        self.backend = backend
        self.workers = workers

    @property
    def input_ops(self):
        return sum(len(s) for s in self.shards)

    @property
    def output_ops(self):
        return sum(len(s) for s in self.reduced)


class ParallelReducer:
    """Shard a PUL and reduce the shards concurrently.

    Parameters
    ----------
    workers:
        Worker count (also the default shard count).
    backend:
        ``process``, ``thread`` or ``serial``.
    deterministic:
        Use ``∆^H`` (:func:`reduce_deterministic`) rather than ``∆^O``.
    retry_serial:
        Recompute shards whose worker failed in-process instead of
        propagating the error.
    """

    def __init__(self, workers=2, backend="process", deterministic=True,
                 retry_serial=True):
        if backend not in _BACKENDS:
            raise ReproError(
                "unknown pipeline backend {!r} (use one of {})".format(
                    backend, "/".join(_BACKENDS)))
        if workers < 1:
            raise ReproError("workers must be >= 1, got {}".format(workers))
        self.workers = workers
        self.backend = backend
        self.deterministic = deterministic
        self.retry_serial = retry_serial
        self._pool = None

    # -- pool lifecycle ------------------------------------------------------
    # the pool is created lazily and kept warm across reduce() calls: an
    # executor serving a stream of PULs must not pay worker start-up and
    # interpreter fork costs per PUL

    def _get_pool(self):
        if self._pool is None:
            pool_class = (
                concurrent.futures.ProcessPoolExecutor
                if self.backend == "process"
                else concurrent.futures.ThreadPoolExecutor)
            self._pool = pool_class(max_workers=self.workers)
        return self._pool

    def close(self):
        """Shut the warm pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- concurrent map with mid-batch failure recovery ----------------------

    def _map(self, worker, items):
        """Run ``worker(item, deterministic)`` over ``items``; returns
        ``(results, failures, backend)`` with results in item order."""
        if self.backend == "serial" or len(items) == 1:
            return ([worker(item, self.deterministic) for item in items],
                    [], "serial")
        results = [None] * len(items)
        failures = []
        try:
            pool = self._get_pool()
            futures = {index: pool.submit(worker, items[index],
                                          self.deterministic)
                       for index in range(len(items))}
            for index, future in futures.items():
                try:
                    results[index] = future.result()
                except ReproError:
                    raise
                except BrokenProcessPool as error:
                    failures.append(ShardFailure(index, error))
                    self.close()  # unusable; a fresh pool next time
                except Exception as error:  # worker died mid-batch
                    failures.append(ShardFailure(index, error))
        except BrokenProcessPool as error:  # raised by submit()
            failures.append(ShardFailure(None, error))
            self.close()
        recovered = [index for index in range(len(items))
                     if results[index] is None]
        if recovered:
            if not self.retry_serial:
                raise ReproError(
                    "pipeline workers failed on shards {} ({})".format(
                        recovered, failures))
            for index in recovered:
                results[index] = worker(items[index], self.deterministic)
        return results, failures, self.backend

    # -- shard-level API -----------------------------------------------------

    def reduce_shards(self, shards):
        """Reduce already-built shards; returns a :class:`ReduceOutcome`."""
        reduced, failures, backend = self._map(_reduce_shard, shards)
        return ReduceOutcome(shards, reduced, failures, backend,
                             self.workers)

    def reduce_wire(self, payloads):
        """Reduce serialized shard payloads (the exchange-format texts of
        the shards of one PUL, as :func:`~repro.pul.serialize.pul_to_xml`
        writes them) without decoding them in the calling process: each
        worker decodes, reduces and re-encodes its shard. Returns
        ``(reduced_payloads, failures)`` in shard order."""
        reduced, failures, __ = self._map(_reduce_shard_wire, payloads)
        return reduced, failures

    # -- PUL-level API -------------------------------------------------------

    def reduce(self, pul, structure=None, num_shards=None):
        """Shard ``pul`` (``num_shards`` defaults to ``workers``) and
        reduce the shards concurrently."""
        shards = shard_pul(pul, num_shards or self.workers,
                           structure=structure)
        return self.reduce_shards(shards)
