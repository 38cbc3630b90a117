"""Network-server throughput: connections x pipelining depth.

The experiment behind the PR 4 serving claim: the asyncio
:class:`~repro.api.server.StoreServer` multiplexes many concurrent
connections onto one resident :class:`DocumentStore`, and *pipelining*
(a client keeping several requests in flight on one connection)
amortizes the per-request round trip — so ops/sec rises with depth
until the store itself, not the transport, is the bottleneck.

Each configuration runs a fresh server on its *own thread and event
loop* (TCP on an ephemeral localhost port — the loopback stack and the
cross-thread wakeup are part of what is being measured, exactly like a
separate server process minus the fork cost) and ``--connections``
async clients on the measuring loop, one resident document per client.
Every client issues ``--ops`` requests with at most ``depth`` in
flight: XQuery-update submissions (compiled server-side against the
resident tree) with a ``flush`` folded in every ``--flush-every``
requests, so the measured mix covers the full protocol path — frame
codec, dispatch, compile, queue, coalesce, sharded reduce, apply.

Usage::

    python benchmarks/bench_server_concurrency.py \
        --connections 8 --ops 200 --depths 1 4 16 --json out.json
"""

import argparse
import asyncio
import json
import sys
import threading
import time

from repro.api.client import AsyncStoreClient
from repro.api.server import StoreServer
from repro.store.store import DocumentStore

DOC_TEXT = "<doc><items/><meta><owner>bench</owner></meta></doc>"
EXPR = 'insert node <x/> as last into /doc/items'


class _ServerThread:
    """A StoreServer on a dedicated thread with its own event loop, so
    client requests pay a real cross-thread round trip (pipelining has
    actual latency to hide, as against a separate server process)."""

    def __init__(self, workers, backend):
        self._workers = workers
        self._backend = backend
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self.address = None
        self.error = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:      # noqa: BLE001 — re-raised
            self.error = exc
        finally:
            # set unconditionally: a bind failure must fail the
            # benchmark, not park __enter__ on the event forever
            self._ready.set()

    async def _main(self):
        server = StoreServer(
            DocumentStore(workers=self._workers, backend=self._backend),
            host="127.0.0.1", port=0)
        await server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.address = server.tcp_address
        self._ready.set()
        await self._stop.wait()
        await server.aclose(drain=False)

    def __enter__(self):
        self._thread.start()
        self._ready.wait()
        if self.error is not None:
            self._thread.join()
            raise self.error
        return self

    def __exit__(self, *exc_info):
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join()


async def _session(host, port, index, ops, depth, flush_every):
    client = await AsyncStoreClient.connect(
        host=host, port=port, client="c{}".format(index))
    doc_id = "d{}".format(index)
    await client.open(doc_id, DOC_TEXT)
    gate = asyncio.Semaphore(depth)

    async def one_request(serial):
        async with gate:
            if serial % flush_every == flush_every - 1:
                await client.flush(doc_id)
            elif serial % 2:
                # realistic sessions poll state between submissions;
                # the cheap reads are also where pipelining pays, since
                # their round trip is pure latency
                await client.stats(doc_id)
            else:
                await client.submit_xquery(doc_id, EXPR)

    await asyncio.gather(*[one_request(serial)
                           for serial in range(ops)])
    await client.flush(doc_id)
    await client.aclose()


async def _run_clients(host, port, connections, ops, depth,
                       flush_every):
    start = time.perf_counter()
    await asyncio.gather(*[
        _session(host, port, index, ops, depth, flush_every)
        for index in range(connections)])
    return time.perf_counter() - start


def measure(connections, ops, depth, flush_every, workers, backend,
            repeats):
    """Best-of-``repeats`` wall time for one configuration."""
    best = None
    for __ in range(max(1, repeats)):
        with _ServerThread(workers, backend) as server:
            host, port = server.address
            wall = asyncio.run(_run_clients(
                host, port, connections, ops, depth, flush_every))
        if best is None or wall < best:
            best = wall
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="network-server ops/sec over connections x "
                    "pipelining depth")
    parser.add_argument("--connections", type=int, default=8,
                        help="concurrent client connections")
    parser.add_argument("--ops", type=int, default=200,
                        help="requests per connection")
    parser.add_argument("--depths", type=int, nargs="+",
                        default=[1, 4, 16],
                        help="pipelining depths to sweep")
    parser.add_argument("--flush-every", type=int, default=25,
                        help="fold a flush into every Nth request")
    parser.add_argument("--workers", type=int, default=2,
                        help="store reduction workers")
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "serial"))
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per depth; the summary keeps the "
                             "best (variance control for the CI gate)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write a machine-readable summary here")
    args = parser.parse_args(argv)

    total_requests = args.connections * args.ops
    print("== {} connections x {} requests (flush every {}) ==".format(
        args.connections, args.ops, args.flush_every))
    depths = {}
    for depth in args.depths:
        wall = measure(args.connections, args.ops, depth,
                       args.flush_every, args.workers, args.backend,
                       args.repeats)
        rate = total_requests / wall if wall else float("inf")
        depths[depth] = {"wall_s": wall, "ops_per_sec": rate}
        print("depth {:>3}: {:8.3f}s  {:>10.0f} ops/s".format(
            depth, wall, rate))

    shallow = depths[min(depths)]["ops_per_sec"]
    best_depth = max(depths, key=lambda d: depths[d]["ops_per_sec"])
    best = depths[best_depth]
    scaling = best["ops_per_sec"] / shallow if shallow else float("inf")
    print("\npipelining summary: depth {} reaches {:.0f} ops/s, "
          "{:.2f}x over depth {}".format(
              best_depth, best["ops_per_sec"], scaling, min(depths)))

    if args.json:
        payload = {"bench_server_concurrency": {
            "ops_per_sec": best["ops_per_sec"],
            "median_wall_s": best["wall_s"],
            "pipelining_speedup": scaling,
            "best_depth": best_depth,
            "connections": args.connections,
            "depths": {str(depth): metrics
                       for depth, metrics in depths.items()},
        }}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("wrote {}".format(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
