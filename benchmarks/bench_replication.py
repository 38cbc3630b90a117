"""Replication: read-throughput scaling vs replica count, and
steady-state replication lag.

The experiment behind the PR 5 scale-out claim. Every node is a real
``repro store serve`` *process* (own interpreter, own GIL, ephemeral
TCP port; replicas stream the leader's WAL through the live
:class:`ReplicaSync` path) — in-process "nodes" would share one GIL
and could never show genuine read scaling. Two measurements:

**Read scaling** — one leader plus R replicas. A fixed read workload
(``text`` + ``query``) is driven from ``--readers`` concurrent
threads, reader *k* keeping one :class:`StoreClient` on replica
``k mod R`` (the leader serves the R=0 baseline); ops/sec per replica
count shows reads spreading across processes instead of re-serializing
on one.

**Steady-state lag** — with a writer continuously submitting and
flushing against the leader, the replica's acknowledged position is
sampled against the leader's stream end after every flush; mean and
max record lag (plus the final catch-up time) quantify how far an
asynchronous follower trails a busy leader.

Usage::

    python benchmarks/bench_replication.py \
        --replicas 0 1 2 --reads 600 --readers 6 --json out.json
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if REPO_SRC not in sys.path:       # direct `python benchmarks/...` runs
    sys.path.insert(0, REPO_SRC)

from repro.api.client import StoreClient          # noqa: E402
from repro.cluster import parse_address  # noqa: E402

DOC_TEXT = ("<doc><items>{}</items><meta><owner>bench</owner></meta>"
            "</doc>".format("".join(
                '<x n="{}"><v>payload text {}</v></x>'.format(i, i)
                for i in range(60))))

WRITE_EXPR = 'insert node <w/> as last into /doc/items'


def _node_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class _Cluster:
    """A leader plus R streaming replicas, each its own process."""

    def __init__(self, replica_count, workers, backend):
        self.replica_count = replica_count
        self.workers = workers
        self.backend = backend
        self.tmp_dir = tempfile.mkdtemp(prefix="bench-repl-")
        self.processes = []
        self.leader_address = None
        self.replica_addresses = []

    def _spawn(self, extra):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "store", "serve",
             "--listen", "127.0.0.1:0",
             "--workers", str(self.workers),
             "--backend", self.backend,
             "--poll-wait", "0.2"] + extra,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=_node_env())
        self.processes.append(process)
        banner = process.stdout.readline().strip()
        if not banner.startswith("listening tcp "):
            raise RuntimeError("node failed to bind: " + banner)
        process.stdout.readline()             # the role line
        return banner.split()[-1]

    def __enter__(self):
        self.leader_address = self._spawn(
            ["--replicate", "--durability", "log",
             "--wal-dir", os.path.join(self.tmp_dir, "leader")])
        for index in range(self.replica_count):
            self.replica_addresses.append(self._spawn(
                ["--follow", self.leader_address,
                 "--replica-id", "bench-r{}".format(index)]))
        return self

    def __exit__(self, *exc_info):
        for process in reversed(self.processes):
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
        shutil.rmtree(self.tmp_dir, ignore_errors=True)

    # -- remote observation ---------------------------------------------------

    def connect(self, address, client=None):
        host, port = parse_address(address)
        return StoreClient.connect(host=host, port=port, client=client,
                                   retries=4)

    def _stats(self, address):
        with self.connect(address) as client:
            return client.stats()

    def leader_seq(self):
        return self._stats(self.leader_address)["replication"]["seq"]

    def applied_seq(self, address):
        replication = self._stats(address).get("replication") or {}
        return replication.get("applied_seq", 0)

    def wait_caught_up(self, timeout=60.0):
        target = self.leader_seq()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if all(self.applied_seq(address) >= target
                   for address in self.replica_addresses):
                return True
            time.sleep(0.05)
        raise RuntimeError("replicas never caught up")


def measure_read_scaling(replica_count, reads, readers, workers,
                         backend, repeats):
    """Best-of-``repeats`` read throughput with ``replica_count``
    replica processes serving the readers."""
    best = None
    for __ in range(max(1, repeats)):
        with _Cluster(replica_count, workers, backend) as cluster:
            with cluster.connect(cluster.leader_address,
                                 client="bench-seed") as seed:
                seed.open("d1", DOC_TEXT)
                seed.submit_xquery("d1", WRITE_EXPR)
                seed.flush("d1")
            if cluster.replica_addresses:
                cluster.wait_caught_up()
            nodes = cluster.replica_addresses or [cluster.leader_address]

            errors = []

            def reader(index):
                try:
                    with cluster.connect(nodes[index % len(nodes)],
                                         client="bench-reader") as client:
                        for serial in range(reads // readers):
                            if serial % 2:
                                client.text("d1")
                            else:
                                client.query("d1", "/doc/items/x")
                except Exception as exc:      # noqa: BLE001 — reported
                    errors.append(exc)

            threads = [threading.Thread(target=reader, args=(index,))
                       for index in range(readers)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            if errors:
                raise errors[0]
        if best is None or wall < best:
            best = wall
    total = (reads // readers) * readers
    return {"wall_s": best, "ops_per_sec": total / best if best else 0.0}


def measure_lag(write_rounds, workers, backend):
    """Steady-state lag: a continuous writer vs one streaming replica."""
    with _Cluster(1, workers, backend) as cluster:
        replica = cluster.replica_addresses[0]
        with cluster.connect(cluster.leader_address,
                             client="bench-writer") as writer:
            writer.open("d1", DOC_TEXT)
            cluster.wait_caught_up()
            samples = []
            for __ in range(write_rounds):
                writer.submit_xquery("d1", WRITE_EXPR)
                writer.flush("d1")
                samples.append(max(0, cluster.leader_seq()
                                   - cluster.applied_seq(replica)))
            catchup_start = time.perf_counter()
            cluster.wait_caught_up()
            catchup_s = time.perf_counter() - catchup_start
    return {
        "lag_records_mean": sum(samples) / len(samples),
        "lag_records_max": max(samples),
        "catchup_s": catchup_s,
        "write_rounds": write_rounds,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="replication read scaling and steady-state lag "
                    "(multi-process nodes)")
    parser.add_argument("--replicas", type=int, nargs="+",
                        default=[0, 1, 2],
                        help="replica counts to sweep (0 = leader-only "
                             "baseline)")
    parser.add_argument("--reads", type=int, default=600,
                        help="total read requests per configuration")
    parser.add_argument("--readers", type=int, default=6,
                        help="concurrent reader threads")
    parser.add_argument("--write-rounds", type=int, default=40,
                        help="flushed writes during the lag phase")
    parser.add_argument("--workers", type=int, default=2,
                        help="store reduction workers per node")
    parser.add_argument("--backend", default="thread",
                        choices=("thread", "serial"))
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per configuration; the summary "
                             "keeps the best (variance control for "
                             "the CI gate)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write a machine-readable summary here")
    args = parser.parse_args(argv)

    print("== read scaling: {} reads x {} readers, process-per-node =="
          .format(args.reads, args.readers))
    scaling = {}
    for count in args.replicas:
        result = measure_read_scaling(count, args.reads, args.readers,
                                      args.workers, args.backend,
                                      args.repeats)
        scaling[count] = result
        print("replicas {:>2}: {:8.3f}s  {:>10.0f} ops/s".format(
            count, result["wall_s"], result["ops_per_sec"]))

    baseline = scaling[min(scaling)]["ops_per_sec"]
    best_count = max(scaling, key=lambda c: scaling[c]["ops_per_sec"])
    best = scaling[best_count]
    speedup = best["ops_per_sec"] / baseline if baseline else 0.0
    print("read scaling: {} replicas reach {:.0f} ops/s, {:.2f}x over "
          "{} replicas".format(best_count, best["ops_per_sec"], speedup,
                               min(scaling)))
    cores = os.cpu_count() or 1
    if cores <= max(scaling) + 1:
        print("note: {} core(s) for {} node processes — replica "
              "scaling is core-bound on this machine; the curve needs "
              "one core per node to open up".format(
                  cores, max(scaling) + 1))

    print("\n== steady-state lag: {} flushed writes ==".format(
        args.write_rounds))
    lag = measure_lag(args.write_rounds, args.workers, args.backend)
    print("lag: mean {:.1f} / max {} record(s); final catch-up "
          "{:.3f}s".format(lag["lag_records_mean"],
                           lag["lag_records_max"], lag["catchup_s"]))

    if args.json:
        payload = {"bench_replication": {
            "ops_per_sec": best["ops_per_sec"],
            "median_wall_s": best["wall_s"],
            "read_scaling_speedup": speedup,
            "best_replica_count": best_count,
            "cpu_count": os.cpu_count(),
            "replica_counts": {str(count): metrics
                               for count, metrics in scaling.items()},
            **lag,
        }}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("wrote {}".format(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
