"""Read serving: MVCC pinned reads under write load, and indexed
query execution against the tree walker.

The experiment behind the MVCC PR's claim: a reader must never wait for
the writer. One writer thread continuously flushes rename batches whose
in-place application is artificially slowed (a sleep inside the batch
applier models a genuinely expensive batch — the sleep releases the
GIL, so on any core count the readers *could* run; whether they *do* is
pure locking policy). Against that write load, ``--readers`` threads
hammer ``text`` two ways:

* **mvcc** — the store's real read path: pin the published version,
  serialize, unpin. Never touches the flush lock.
* **locked baseline** — what every read paid before this PR: acquire
  the entry's ``flush_lock``, serialize, release. Blocks for the full
  apply window of any in-flight batch.

The headline ``ops_per_sec`` is the MVCC arm's reads/sec under write
load; ``read_write_overlap`` (MVCC reads/sec over locked reads/sec,
same machine, same run) is the machine-independent ratio the CI gate
floors, and ``reads_during_apply`` counts reads that *completed while a
batch was mid-apply* — definitionally zero for a correct locked
baseline, the direct proof of overlap for MVCC.

The second experiment is the index PR's claim: a **selectivity sweep**
runs the same path queries through ``engine="walk"`` (the tree walker)
and ``engine="auto"`` (the cost-based planner over the secondary
index) on a ≥5k-node document. Rare names are where the index pays:
``//needle`` touches a 20-entry bucket instead of walking every node.
``index_speedup`` (walker time over indexed time on the selective
query, same machine, same run) is the machine-independent ratio the CI
gate floors; dense queries are reported too — the planner's cost model
keeps them near 1x rather than slowing them down.

Usage::

    python benchmarks/bench_query_serving.py \
        --scale 0.02 --readers 4 --rounds 8 --repeats 2 --json out.json
"""

import argparse
import json
import os
import sys
import threading
import time

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if REPO_SRC not in sys.path:       # direct `python benchmarks/...` runs
    sys.path.insert(0, REPO_SRC)

import repro.store.store as store_module          # noqa: E402
from repro.pul.ops import Rename                  # noqa: E402
from repro.pul.pul import PUL                     # noqa: E402
from repro.store import DocumentStore             # noqa: E402
from repro.workloads.xmark import generate_xmark  # noqa: E402
from repro.xdm.serializer import serialize        # noqa: E402

#: artificial per-batch apply cost (seconds): the window the readers
#: either overlap (MVCC) or stall in (locked)
APPLY_SLEEP_S = 0.05


class _SlowApply:
    """Wrap the batch applier with a sleep and an "applying" flag."""

    def __init__(self, sleep_s=APPLY_SLEEP_S):
        self.sleep_s = sleep_s
        self.applying = threading.Event()
        self._real = store_module.apply_batch_in_place

    def __enter__(self):
        def slow_apply(document, labeling, pul, **options):
            self.applying.set()
            try:
                time.sleep(self.sleep_s)
                return self._real(document, labeling, pul,
                                  **options)
            finally:
                self.applying.clear()

        store_module.apply_batch_in_place = slow_apply
        return self

    def __exit__(self, *exc_info):
        store_module.apply_batch_in_place = self._real


def _run_arm(scale, readers, rounds, read_fn_name):
    """One measured pass: returns ``(reads, wall_s, overlapped)``.

    ``read_fn_name`` picks the read policy: ``"mvcc"`` (the store's
    pinned read path) or ``"locked"`` (the pre-MVCC behaviour, emulated
    by serializing under the entry's flush lock)."""
    document = generate_xmark(scale=scale, seed=42)
    with DocumentStore(backend="serial") as store, _SlowApply() as slow:
        store.open("d", document)
        entry = store._entries["d"]
        target = next(n.node_id for n in store.document("d").nodes()
                      if n.is_element and n.name == "item")

        if read_fn_name == "mvcc":
            def read_once():
                store.text_version("d")
        else:
            def read_once():
                with entry.flush_lock:
                    serialize(entry.published.document)

        stop = threading.Event()
        counts = [0] * readers
        overlapped = [0] * readers

        def read_loop(slot):
            while not stop.is_set():
                read_once()
                counts[slot] += 1
                if slow.applying.is_set():
                    overlapped[slot] += 1

        threads = [threading.Thread(target=read_loop, args=(slot,),
                                    daemon=True)
                   for slot in range(readers)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for i in range(rounds):
            store.submit("d", PUL([Rename(target, "r{}".format(i))]))
            store.flush("d")
        wall = time.perf_counter() - start
        stop.set()
        for thread in threads:
            thread.join(10)
    return sum(counts), wall, sum(overlapped)


def _build_corpus(rows):
    """A flat catalog big enough that walking hurts: ``rows`` three-node
    ``<row>`` records (element + attribute + text) and 20 rare
    ``<needle>`` elements sprinkled through them."""
    needle_every = max(1, rows // 20)
    parts = ["<cat>"]
    for i in range(rows):
        parts.append('<row k="k{}">v{}</row>'.format(i % 50, i))
        if i % needle_every == 0:
            parts.append("<needle>n{}</needle>".format(i))
    parts.append("</cat>")
    return "".join(parts)


#: the sweep, selective to dense: a 20-entry bucket, a value-predicate
#: step, and the bucket that contains nearly the whole document
SWEEP_QUERIES = ("//needle", '//row[@k = "k7"]', "//row")


def _run_selectivity(rows, reps, repeats):
    """Walker vs planner over one resident document; returns
    ``(document_size, [per-query result dicts])``."""
    with DocumentStore(backend="serial") as store:
        store.open("q", _build_corpus(rows))
        size = len(store.document("q"))
        sweep = []
        for query in SWEEP_QUERIES:
            walked = store.query("q", query, engine="walk")
            served = store.query("q", query, explain=True)
            assert walked["nodes"] == served["nodes"]  # byte identity
            times = {}
            for engine in ("walk", "auto"):
                best = None
                for __ in range(repeats):
                    start = time.perf_counter()
                    for __ in range(reps):
                        store.query("q", query, engine=engine)
                    wall = time.perf_counter() - start
                    if best is None or wall < best:
                        best = wall
                times[engine] = best
            sweep.append({
                "query": query,
                "matches": served["count"],
                "mode": served["plan"]["mode"],
                "walk_s": times["walk"],
                "indexed_s": times["auto"],
                "speedup": (times["walk"] / times["auto"]
                            if times["auto"] else float("inf")),
            })
    return size, sweep


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="read throughput under continuous slow writes: "
                    "MVCC pinned reads vs flush-locked reads")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="XMark document scale")
    parser.add_argument("--readers", type=int, default=4,
                        help="concurrent reader threads")
    parser.add_argument("--rounds", type=int, default=8,
                        help="writer flushes per pass (each slowed by "
                             "{:.0f}ms of apply)".format(
                                 APPLY_SLEEP_S * 1000))
    parser.add_argument("--repeats", type=int, default=2,
                        help="passes per arm; the summary keeps the "
                             "best (variance control)")
    parser.add_argument("--query-rows", type=int, default=2000,
                        help="catalog rows for the selectivity sweep "
                             "(3 nodes each; 2000 rows ~ 6k nodes)")
    parser.add_argument("--query-reps", type=int, default=25,
                        help="query executions per timed pass of the "
                             "selectivity sweep")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write a machine-readable summary here")
    args = parser.parse_args(argv)

    results = {}
    for arm in ("mvcc", "locked"):
        best = None
        for __ in range(args.repeats):
            reads, wall, overlapped = _run_arm(
                args.scale, args.readers, args.rounds, arm)
            rate = reads / wall if wall else float("inf")
            if best is None or rate > best[0]:
                best = (rate, wall, reads, overlapped)
        results[arm] = best
        print("{:>7}: {:>8.0f} reads/s  ({} reads in {:.3f}s, "
              "{} completed mid-apply)".format(
                  arm, best[0], best[2], best[1], best[3]))

    mvcc_rate, mvcc_wall, __, mvcc_overlap = results["mvcc"]
    locked_rate = results["locked"][0]
    overlap = mvcc_rate / locked_rate if locked_rate else float("inf")
    print("\nread/write overlap: MVCC serves {:.2f}x the locked "
          "baseline's reads under identical write load".format(overlap))
    if mvcc_overlap == 0:
        print("WARNING: no MVCC read completed during an apply window "
              "-- the write load never materialized")

    size, sweep = _run_selectivity(args.query_rows, args.query_reps,
                                   args.repeats)
    print("\nselectivity sweep over a {}-node document "
          "({} runs per arm):".format(size, args.query_reps))
    for row in sweep:
        print("  {:>18}  {:>5} match(es)  {:>7}  walk {:7.1f}ms  "
              "indexed {:7.1f}ms  {:5.1f}x".format(
                  row["query"], row["matches"], row["mode"],
                  row["walk_s"] * 1000, row["indexed_s"] * 1000,
                  row["speedup"]))
    index_speedup = sweep[0]["speedup"]   # the selective //needle arm

    if args.json:
        payload = {"bench_query_serving": {
            "ops_per_sec": mvcc_rate,
            "median_wall_s": mvcc_wall,
            "locked_ops_per_sec": locked_rate,
            "read_write_overlap": overlap,
            "reads_during_apply": mvcc_overlap,
            "readers": args.readers,
            "index_speedup": index_speedup,
            "query_document_nodes": size,
            "selectivity_sweep": sweep,
        }}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("wrote {}".format(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
