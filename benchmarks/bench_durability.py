"""Durability overhead and recovery time.

What the write-ahead log costs and what it buys: the same
concurrent-client workload is flushed through the store under each
durability policy (``off`` / ``log`` / ``log+snapshot:N``), giving the
throughput overhead of logging and of compaction; then durable sessions
of growing length are recovered from disk, giving recovery time as a
function of log length — linear for a bare log, bounded by the snapshot
interval under compaction.

Two entry points:

* under pytest (like the figure benchmarks): ``pytest
  benchmarks/bench_durability.py`` times a resident flush session with
  and without the write-ahead log;
* as a script: ``python benchmarks/bench_durability.py --scale 0.05
  --policy log`` prints the policy table and the recovery sweep
  (``--json FILE`` additionally writes the machine-readable summary the
  CI benchmark gate consumes).
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import pytest

from repro.store import DocumentStore
from repro.workloads import generate_client_batches, generate_xmark
from repro.xdm.serializer import serialize

CLIENTS = 4
ROUNDS = 6
OPS_PER_ROUND = 120
SMOKE_MAX_OVERHEAD = 2.5


def _session(text, batches, policy, wal_dir, workers=2, backend="serial"):
    """Flush the whole workload under ``policy``; returns the summed
    flush wall time."""
    store = DocumentStore(
        workers=workers, backend=backend,
        durability=policy if policy != "off" else None,
        wal_dir=wal_dir if policy != "off" else None)
    elapsed = 0.0
    try:
        store.open("bench", text)
        for submissions in batches:
            for client, pul in submissions:
                store.submit("bench", pul.copy(), client=client)
            start = time.perf_counter()
            store.flush("bench")
            elapsed += time.perf_counter() - start
        return elapsed, store.text("bench")
    finally:
        store.close()


# -- pytest mode --------------------------------------------------------------


@pytest.fixture(scope="module")
def client_workload(xmark_medium):
    batches, expected = generate_client_batches(
        xmark_medium, clients=CLIENTS, rounds=ROUNDS,
        ops_per_round=OPS_PER_ROUND, seed=11)
    return serialize(xmark_medium), batches, serialize(expected)


@pytest.mark.parametrize("policy", ["off", "log", "log+snapshot:2"])
def test_flush_under_policy(benchmark, client_workload, tmp_path, policy):
    text, batches, expected = client_workload
    runs = {"count": 0}

    def session():
        wal_dir = str(tmp_path / "wal-{}".format(runs["count"]))
        runs["count"] += 1
        __, result = _session(text, batches, policy, wal_dir)
        return result

    result = benchmark(session)
    assert result == expected


def test_recovery_from_log(benchmark, client_workload, tmp_path):
    text, batches, expected = client_workload
    wal_dir = str(tmp_path / "wal-recover")
    __, result = _session(text, batches, "log", wal_dir)
    assert result == expected

    def recover():
        with DocumentStore(workers=2, backend="serial",
                           durability="log", wal_dir=wal_dir) as store:
            return store.text("bench")

    assert benchmark(recover) == expected


# -- script mode --------------------------------------------------------------


def run_policy_comparison(text, batches, policies, workers, backend,
                          repeats, workdir):
    """Best-of-``repeats`` flush time per policy; returns
    ``policy -> {"wall_s", "ops_per_sec", "overhead"}`` (overhead is
    relative to the ``off`` policy when it was measured)."""
    submitted = sum(len(pul) for round_ in batches for __, pul in round_)
    results = {}
    reference_text = None
    for policy in policies:
        times = []
        for repeat in range(repeats):
            wal_dir = os.path.join(
                workdir, "{}-{}".format(policy.replace(":", "_"), repeat))
            elapsed, result = _session(text, batches, policy, wal_dir,
                                       workers=workers, backend=backend)
            if reference_text is None:
                reference_text = result
            elif result != reference_text:
                raise AssertionError(
                    "policy {} changed the output bytes".format(policy))
            times.append(elapsed)
        wall = min(times)
        results[policy] = {
            "wall_s": wall,
            "median_wall_s": sorted(times)[len(times) // 2],
            "ops_per_sec": submitted / wall if wall else float("inf"),
        }
    if "off" in results:
        base = results["off"]["wall_s"]
        for policy, row in results.items():
            row["overhead"] = row["wall_s"] / base if base else 1.0
    return results


def run_recovery_sweep(text, batches, policy, workers, backend, workdir,
                       lengths):
    """Recovery time after ``k`` logged batches, for each ``k``."""
    rows = []
    for length in lengths:
        wal_dir = os.path.join(
            workdir, "recover-{}-{}".format(policy.replace(":", "_"),
                                            length))
        _session(text, batches[:length], policy, wal_dir,
                 workers=workers, backend=backend)
        start = time.perf_counter()
        with DocumentStore(workers=workers, backend=backend,
                           durability=policy, wal_dir=wal_dir) as store:
            elapsed = time.perf_counter() - start
            report = store.recovery
        rows.append({
            "batches": length,
            "policy": policy,
            "recovery_s": elapsed,
            "replayed": report.replayed_batches if report else 0,
        })
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="durability overhead and recovery time")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="XMark document scale")
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--ops", type=int, default=50,
                        help="operations per round")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--backend", default="serial",
                        choices=("thread", "serial"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--policy", action="append", default=None,
                        help="durability policy to measure (repeatable); "
                             "'off' is always measured as the baseline")
    parser.add_argument("--max-overhead", type=float, default=None,
                        help="fail if the 'log' policy exceeds this "
                             "overhead factor vs 'off'")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the machine-readable summary here")
    args = parser.parse_args(argv)

    policies = args.policy or ["log", "log+snapshot:4"]
    if "off" not in policies:
        policies = ["off"] + policies

    document = generate_xmark(scale=args.scale, seed=7)
    text = serialize(document)
    batches, __ = generate_client_batches(
        document, clients=args.clients, rounds=args.rounds,
        ops_per_round=args.ops, seed=args.seed)
    submitted = sum(len(pul) for round_ in batches for __unused, pul
                    in round_)
    print("workload: {} rounds x {} ops from {} clients on {} nodes "
          "({} submitted ops)".format(
              args.rounds, args.ops, args.clients,
              sum(1 for __unused in document.nodes()), submitted))

    workdir = tempfile.mkdtemp(prefix="repro-durability-")
    try:
        results = run_policy_comparison(
            text, batches, policies, args.workers, args.backend,
            args.repeats, workdir)
        print("\n{:>16} {:>10} {:>12} {:>10}".format(
            "policy", "time", "ops/sec", "overhead"))
        for policy in policies:
            row = results[policy]
            print("{:>16} {:>9.4f}s {:>12.0f} {:>9.2f}x".format(
                policy, row["wall_s"], row["ops_per_sec"],
                row.get("overhead", 1.0)))

        lengths = sorted({max(1, args.rounds // 4),
                          max(1, args.rounds // 2), args.rounds})
        sweep = []
        for policy in policies:
            if policy == "off":
                continue
            sweep.extend(run_recovery_sweep(
                text, batches, policy, args.workers, args.backend,
                workdir, lengths))
        print("\nrecovery time vs log length:")
        print("{:>16} {:>8} {:>9} {:>11}".format(
            "policy", "batches", "replayed", "recovery"))
        for row in sweep:
            print("{:>16} {:>8} {:>9} {:>10.4f}s".format(
                row["policy"], row["batches"], row["replayed"],
                row["recovery_s"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    log_row = results.get("log")
    if args.json:
        headline = log_row or next(
            (results[p] for p in policies if p != "off"), results["off"])
        payload = {"bench_durability": {
            "ops_per_sec": headline["ops_per_sec"],
            "median_wall_s": headline["median_wall_s"],
            "policies": {policy: {key: row[key]
                                  for key in ("wall_s", "ops_per_sec",
                                              "overhead")
                                  if key in row}
                         for policy, row in results.items()},
            "recovery": sweep,
        }}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("\nwrote {}".format(args.json))

    if args.max_overhead is not None and log_row is not None:
        overhead = log_row.get("overhead")
        if overhead is not None and overhead > args.max_overhead:
            print("FAIL: log-policy overhead {:.2f}x exceeds the "
                  "{:.2f}x budget".format(overhead, args.max_overhead))
            return 1
        print("log-policy overhead {:.2f}x within the {:.2f}x "
              "budget".format(overhead, args.max_overhead))
    return 0


if __name__ == "__main__":
    sys.exit(main())
