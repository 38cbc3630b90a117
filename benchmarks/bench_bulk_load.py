"""Streaming bulk load vs per-document opens — the group-fsync bench.

The ETL claim behind ``repro store import``: making a corpus resident
through per-document :meth:`DocumentStore.open` pays one WAL
append+fsync per document, while :meth:`DocumentStore.bulk_load`
chunks amortize one ``sync`` over the whole chunk (its ``open``
records board one commit train of :meth:`DurabilityManager.append`) —
so durable load throughput rises with chunk size while
fsyncs-per-document falls toward ``1/N``.

Each pass loads ``--docs`` synthetic documents into a fresh log-durable
store, once per document and once in ``--chunk-docs`` chunks; both
paths end with the same resident, recoverable state.

Usage::

    python benchmarks/bench_bulk_load.py --docs 200 --chunk-docs 64
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import repro.store.durability.wal as wal_module
from repro.store import DocumentStore

DOC_TEMPLATE = ("<doc><meta><id>{0}</id><owner>etl</owner></meta>"
                "<items>{1}</items></doc>")


class _FsyncCounter:
    """Wraps ``os.fsync`` inside the WAL module to count calls."""

    def __init__(self):
        self.count = 0
        self._real = os.fsync

    def __enter__(self):
        def counting(fd):
            self.count += 1
            return self._real(fd)
        wal_module.os.fsync = counting
        return self

    def __exit__(self, *exc_info):
        wal_module.os.fsync = self._real


def make_corpus(docs, items=20):
    body = "".join('<i n="{0}"><v>{0}</v></i>'.format(index)
                   for index in range(items))
    return [("d{}".format(index), DOC_TEMPLATE.format(index, body))
            for index in range(docs)]


def run_per_doc(corpus, wal_dir):
    with DocumentStore(workers=1, backend="serial", durability="log",
                       wal_dir=wal_dir) as store:
        with _FsyncCounter() as counter:
            start = time.perf_counter()
            for doc_id, text in corpus:
                store.open(doc_id, text)
            wall = time.perf_counter() - start
    return wall, counter.count


def run_bulk(corpus, wal_dir, chunk_docs):
    with DocumentStore(workers=1, backend="serial", durability="log",
                       wal_dir=wal_dir) as store:
        with _FsyncCounter() as counter:
            start = time.perf_counter()
            for offset in range(0, len(corpus), chunk_docs):
                store.bulk_load(corpus[offset:offset + chunk_docs])
            wall = time.perf_counter() - start
    return wall, counter.count


def measure(runner, repeats):
    best = None
    for __ in range(max(1, repeats)):
        wal_dir = tempfile.mkdtemp(prefix="bench-bulk-load-")
        try:
            wall, fsyncs = runner(wal_dir)
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
        if best is None or wall < best[0]:
            best = (wall, fsyncs)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="chunked bulk load vs per-document durable opens")
    parser.add_argument("--docs", type=int, default=200,
                        help="documents per pass")
    parser.add_argument("--items", type=int, default=20,
                        help="item elements per document")
    parser.add_argument("--chunk-docs", type=int, default=64,
                        help="documents per bulk-load chunk")
    parser.add_argument("--repeats", type=int, default=3,
                        help="passes per path; the summary keeps the "
                             "best (variance control)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write a machine-readable summary here")
    args = parser.parse_args(argv)

    corpus = make_corpus(args.docs, args.items)
    corpus_bytes = sum(len(text) for __, text in corpus)

    per_doc_wall, per_doc_fsyncs = measure(
        lambda d: run_per_doc(corpus, d), args.repeats)
    per_doc_rate = args.docs / per_doc_wall if per_doc_wall \
        else float("inf")
    print("per-document open: {} docs  {:8.3f}s  {:>8.0f} docs/s  "
          "{:.2f} fsyncs/doc".format(
              args.docs, per_doc_wall, per_doc_rate,
              per_doc_fsyncs / args.docs))

    bulk_wall, bulk_fsyncs = measure(
        lambda d: run_bulk(corpus, d, args.chunk_docs), args.repeats)
    bulk_rate = args.docs / bulk_wall if bulk_wall else float("inf")
    mb_per_s = (corpus_bytes / bulk_wall / 1e6) if bulk_wall \
        else float("inf")
    fsyncs_per_doc = bulk_fsyncs / args.docs if args.docs else 0.0
    print("bulk load ({} per chunk): {} docs  {:8.3f}s  "
          "{:>8.0f} docs/s  {:6.1f} MB/s  {:.2f} fsyncs/doc".format(
              args.chunk_docs, args.docs, bulk_wall, bulk_rate,
              mb_per_s, fsyncs_per_doc))

    speedup = bulk_rate / per_doc_rate if per_doc_rate \
        else float("inf")
    print("\nbulk-load summary: {:.2f}x the per-document durable "
          "rate at {:.0%} of its fsync bill".format(
              speedup, (bulk_fsyncs / per_doc_fsyncs
                        if per_doc_fsyncs else 0.0)))

    if args.json:
        payload = {"bench_bulk_load": {
            "ops_per_sec": bulk_rate,
            "median_wall_s": bulk_wall,
            "mb_per_sec": mb_per_s,
            "per_doc_ops_per_sec": per_doc_rate,
            "bulk_speedup": speedup,
            "fsyncs_per_doc": fsyncs_per_doc,
            "docs": args.docs,
            "chunk_docs": args.chunk_docs,
        }}
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print("wrote {}".format(args.json))
    return 0


if __name__ == "__main__":
    sys.exit(main())
