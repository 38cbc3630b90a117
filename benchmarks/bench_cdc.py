"""Change-feed subscription throughput and freshness over real sockets.

A log-durable leader is served by a :class:`StoreServer` on its own
thread; a writer client flushes batches while a subscriber client
streams the raw feed through ``subscribe`` long-polls and applies each
page to a WAL-less :class:`~repro.cluster.ReplicaStore` it bootstrapped
from ``export`` (the consumer loop of ``ReplicaSync``, by hand).
Reported:

* ``events_per_sec`` — drain rate of the subscription path (decode,
  token mint, wire, replica apply);
* ``freshness_ms`` — median flush→event latency: the wall time from a
  durable flush ack to the subscriber holding the matching batch event
  via a parked long-poll (the same ``subscribe`` poll cluster
  replicas follow through);
* byte-identity of the consumer's replica against the leader,
  asserted, so the bench cannot drift from correctness.

Usage::

    python benchmarks/bench_cdc.py --writes 150 --poll-writes 20
"""

import argparse
import asyncio
import json
import shutil
import statistics
import sys
import tempfile
import threading
import time

from repro.api.client import StoreClient
from repro.api.server import StoreServer
from repro.cluster import ReplicaStore
from repro.store import DocumentStore

DOC_TEXT = "<doc><meta><owner>bench</owner></meta><items/></doc>"
EXPR = 'insert node <x a="1"><v>payload text</v></x> as last into ' \
       '/doc/items'


class _ServerThread:
    """A StoreServer on a dedicated thread with its own event loop, so
    subscriber long-polls pay real cross-thread wakeups."""

    def __init__(self, wal_dir):
        self._wal_dir = wal_dir
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
            self._ready.set()

    async def _main(self):
        store = DocumentStore(workers=1, backend="serial",
                              durability="log", wal_dir=self._wal_dir)
        store.enable_replication()
        server = StoreServer(store, host="127.0.0.1", port=0)
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


def drain(client, replica, token, max_events):
    """Poll until dry; returns ``(next token, events applied)``."""
    applied = 0
    while True:
        page = client.subscribe_once(from_token=token, decode=False,
                                     max_events=max_events)
        replica.apply_records(page)
        token = page["token"]
        if not page["events"]:
            return token, applied
        applied += len(page["events"])


def run_pass(address, writes, poll_writes, max_events):
    host, port = address
    writer = StoreClient.connect(host=host, port=port, client="writer")
    subscriber = StoreClient.connect(host=host, port=port,
                                     client="subscriber")
    replica = ReplicaStore(workers=1, backend="serial")
    try:
        export = subscriber.export(format="state")
        replica.bootstrap(export["docs"], export["seq"],
                          stream=export["stream"])
        token = export["token"]
        writer.open("d", DOC_TEXT)
        for __ in range(writes):
            writer.submit_xquery("d", EXPR)
            writer.flush("d")
        # throughput: drain the whole backlog through the wire
        start = time.perf_counter()
        token, applied = drain(subscriber, replica, token, max_events)
        drain_wall = time.perf_counter() - start
        assert replica.text("d") == writer.text("d")["text"]

        # freshness: a parked long-poll races each durable flush
        latencies = []
        for __ in range(poll_writes):
            box = {}

            def parked(from_token=token):
                box["page"] = subscriber.subscribe_once(
                    from_token=from_token, decode=False, wait_s=10.0)
                box["at"] = time.perf_counter()

            poller = threading.Thread(target=parked)
            poller.start()
            time.sleep(0.005)           # let the poll park server-side
            writer.submit_xquery("d", EXPR)
            writer.flush("d")
            flushed_at = time.perf_counter()
            poller.join()
            page = box["page"]
            assert page["events"], "long-poll returned dry"
            latencies.append(max(0.0, box["at"] - flushed_at))
            replica.apply_records(page)
            token = page["token"]
        token, __ = drain(subscriber, replica, token, max_events)
        assert replica.text("d") == writer.text("d")["text"]
    finally:
        subscriber.close()
        writer.close()
        replica.close()
    return applied, drain_wall, latencies


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="CDC subscription throughput and flush-to-event "
                    "freshness")
    parser.add_argument("--writes", type=int, default=150,
                        help="flushed batches in the drain backlog")
    parser.add_argument("--poll-writes", type=int, default=20,
                        help="timed flush-vs-parked-poll races")
    parser.add_argument("--max-events", type=int, default=64,
                        help="events per subscription page")
    parser.add_argument("--repeats", type=int, default=2,
                        help="passes; the summary keeps the best "
                             "(variance control)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write a machine-readable summary here")
    args = parser.parse_args(argv)

    best = None
    for __ in range(max(1, args.repeats)):
        wal_dir = tempfile.mkdtemp(prefix="bench-cdc-")
        try:
            with _ServerThread(wal_dir) as node:
                applied, wall, latencies = run_pass(
                    node.address, args.writes, args.poll_writes,
                    args.max_events)
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
        rate = applied / wall if wall else float("inf")
        if best is None or rate > best[0]:
            best = (rate, applied, wall, latencies)

    rate, applied, wall, latencies = best
    freshness_ms = 1000 * statistics.median(latencies)
    print("drain: {} events  {:8.3f}s  {:>8.0f} events/s".format(
        applied, wall, rate))
    print("freshness: median {:.2f} ms flush->event over {} parked "
          "polls (p max {:.2f} ms)".format(
              freshness_ms, len(latencies),
              1000 * max(latencies)))
    print("\ncdc summary: replica byte-identical to the leader at "
          "{:>6.0f} events/s, {:.2f} ms freshness".format(
              rate, freshness_ms))

    if args.json:
        payload = {"bench_cdc": {
            "ops_per_sec": rate,
            "median_wall_s": wall,
            "events": applied,
            "freshness_ms": freshness_ms,
            "max_freshness_ms": 1000 * max(latencies),
        }}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("wrote {}".format(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
