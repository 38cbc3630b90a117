"""Command-line interface: PUL operations on files.

Subcommands mirror the library's pipeline (``-`` reads stdin):

* ``produce``   — evaluate an XQuery Update expression against a document,
  print the PUL exchange document (labels attached);
* ``reduce``    — reduce a PUL (``--deterministic`` / ``--canonical``);
* ``integrate`` — integrate parallel PULs; report conflicts or, with
  ``--reconcile``, resolve them under per-producer policies;
* ``aggregate`` — aggregate a sequence of PULs into one delta;
* ``apply``     — make a PUL effective on a document (streaming by
  default);
* ``invert``    — compute the inverse of a PUL against its document;
* ``store``     — the resident multi-document update store:
  ``store serve --listen host:port|unix:PATH`` serves the versioned
  network protocol of :mod:`repro.api` (asyncio, many concurrent
  clients, pipelined requests) — the store's one front door —
  optionally durable (``--wal-dir``, ``--durability log+snapshot:N``),
  as a replication leader (``--replicate``: the write-ahead log is
  the change feed) or as a read replica following one (``--follow
  HOST:PORT``);
  ``store recover`` rebuilds state from a durability directory
  (``--verify`` byte-compares against the stateless replay oracle);
  ``store bench`` reports resident-incremental vs parse+full-relabel
  throughput; ``store import``/``store export`` are the streaming bulk
  ETL pair — chunked group-committed loads of XML corpora, and
  filtered resumable dumps whose resume token anchors a CDC
  subscription (``--target`` a running server or ``--wal-dir`` a local
  directory); ``store metrics`` dumps the observability series
  (Prometheus text or ``--json``) and ``store top`` is a live,
  curses-free dashboard over a running server (ops/sec, latency
  percentiles, fsync rate, replication lag);
* ``cluster``   — operating a replicated deployment of ``store serve``
  nodes: ``cluster promote --node HOST:PORT`` manually fails over to a
  caught-up replica, ``cluster status`` reports role, stream position
  and replication lag per node.

Examples::

    python -m repro.cli produce doc.xml 'delete nodes //draft' > p1.pul
    python -m repro.cli reduce --canonical doc.xml p1.pul
    python -m repro.cli integrate --reconcile doc.xml p1.pul p2.pul
    python -m repro.cli apply doc.xml p1.pul > updated.xml
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.aggregation import aggregate
from repro.apply.events import events_to_xml, parse_events
from repro.apply.inmemory import apply_in_memory
from repro.apply.streaming import apply_streaming
from repro.errors import ReproError
from repro.etl.exporter import safe_filename
from repro.etl.importer import DEFAULT_CHUNK_DOCS
from repro.integration import ProducerPolicy, integrate, reconcile
from repro.labeling import ContainmentLabeling
from repro.pul.inverse import invert_pul
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.reasoning import DocumentOracle
from repro.reduction import canonical_form, reduce_deterministic, reduce_pul
from repro.store import (
    DEFAULT_MAX_CODE_LENGTH,
    DocumentStore,
    DurabilityPolicy,
    replay_oracle,
)
from repro.store.bench import run_store_benchmark
from repro.xdm.parser import parse_document
from repro.xquery import compile_pul


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_document(path):
    return parse_document(_read(path))


def _load_pul(path):
    return pul_from_xml(_read(path))


def _parse_policy(spec):
    """``producer:flag[,flag...]`` with flags order/inserted/removed."""
    name, __, flags = spec.partition(":")
    known = {"order": "preserve_insertion_order",
             "inserted": "preserve_inserted_data",
             "removed": "preserve_removed_data"}
    values = {}
    for flag in filter(None, flags.split(",")):
        if flag not in known:
            raise argparse.ArgumentTypeError(
                "unknown policy flag {!r} (use order/inserted/removed)"
                .format(flag))
        values[known[flag]] = True
    return name, ProducerPolicy(**values)


def cmd_produce(args, out):
    document = _load_document(args.document)
    labeling = ContainmentLabeling().build(document)
    pul = compile_pul(args.query, document, labeling=labeling,
                      origin=args.origin)
    out.write(pul_to_xml(pul) + "\n")
    return 0


def cmd_reduce(args, out):
    pul = _load_pul(args.pul)
    structure = None
    if args.document:
        structure = DocumentOracle(_load_document(args.document))
    if args.canonical:
        reduced = canonical_form(pul, structure)
    elif args.deterministic:
        reduced = reduce_deterministic(pul, structure)
    else:
        reduced = reduce_pul(pul, structure)
    out.write(pul_to_xml(reduced) + "\n")
    sys.stderr.write("{} -> {} operations\n".format(len(pul),
                                                    len(reduced)))
    return 0


def cmd_integrate(args, out):
    puls = [_load_pul(path) for path in args.puls]
    structure = None
    if args.document:
        structure = DocumentOracle(_load_document(args.document))
    if args.reconcile:
        policies = dict(args.policy or [])
        result = reconcile(puls, policies=policies, structure=structure)
        out.write(pul_to_xml(result) + "\n")
        return 0
    outcome = integrate(puls, structure=structure)
    for conflict in outcome.conflicts:
        sys.stderr.write("conflict: {}\n".format(conflict.describe()))
    out.write(pul_to_xml(outcome.pul) + "\n")
    return 1 if outcome.has_conflicts else 0


def cmd_aggregate(args, out):
    puls = [_load_pul(path) for path in args.puls]
    combined = aggregate(puls, generalized_repc=not args.strict)
    out.write(pul_to_xml(combined) + "\n")
    sys.stderr.write("{} PULs / {} ops -> {} ops\n".format(
        len(puls), sum(len(p) for p in puls), len(combined)))
    return 0


def cmd_apply(args, out):
    text = _read(args.document)
    pul = _load_pul(args.pul)
    if args.in_memory:
        result = apply_in_memory(text, pul)
    else:
        # no tree (Section 4.3's memory bound) and no fresh ids: the
        # output carries none
        result = events_to_xml(apply_streaming(parse_events(text), pul))
    out.write(result + "\n")
    return 0


def _durability_policy(args):
    """Resolve the --wal-dir/--durability/--snapshot-every flags."""
    if args.wal_dir is None:
        if args.durability not in (None, "off"):
            raise ReproError(
                "--durability {} needs --wal-dir".format(args.durability))
        if args.snapshot_every is not None:
            raise ReproError("--snapshot-every needs --wal-dir")
        return None, None
    policy = DurabilityPolicy.parse(args.durability or "log")
    if args.snapshot_every is not None:
        if args.durability is not None and policy.mode != "snapshot":
            # an explicit non-snapshot mode contradicts the interval;
            # dropping the flag silently would leave the user running
            # an unbounded log they asked to have compacted
            raise ReproError(
                "--snapshot-every needs a snapshot durability mode, "
                "but --durability is {!r} (use log+snapshot)".format(
                    args.durability))
        policy = DurabilityPolicy(mode="snapshot",
                                  snapshot_every=args.snapshot_every)
    return policy, args.wal_dir


def _parse_listen(spec):
    """``host:port`` or ``unix:PATH`` -> (host, port, unix_path)."""
    if spec.startswith("unix:"):
        path = spec[len("unix:"):]
        if not path:
            raise ReproError("--listen unix: needs a socket path")
        return None, 0, path
    host, sep, port = spec.rpartition(":")
    if not sep:
        raise ReproError(
            "--listen takes host:port or unix:PATH, got {!r}".format(
                spec))
    try:
        port = int(port)
    except ValueError:
        raise ReproError(
            "--listen port must be an integer, got {!r}".format(port))
    return host or "127.0.0.1", port, None


def _parse_metrics_listen(spec):
    """``host:port`` for the opt-in Prometheus HTTP endpoint."""
    host, port, unix_path = _parse_listen(spec)
    if unix_path is not None:
        raise ReproError("--metrics-listen takes HOST:PORT (scrapers "
                         "speak HTTP over TCP)")
    return host, port


def _observability_kwargs(args):
    """The store-construction kwargs behind the observability flags."""
    return dict(metrics=not args.no_metrics,
                slow_query_s=args.slow_query_s,
                slow_flush_s=args.slow_flush_s,
                slow_log_path=args.slow_log)


def cmd_store_serve(args, out):
    import asyncio

    from repro.api.server import StoreServer

    policy, wal_dir = _durability_policy(args)
    host, port, unix_path = _parse_listen(args.listen)
    options = dict(workers=args.workers, backend=args.backend,
                   max_code_length=args.max_code_length,
                   on_conflict=args.on_conflict,
                   durability=policy, wal_dir=wal_dir,
                   **_observability_kwargs(args))
    sync = None
    if args.follow is not None:
        # a follower: streams the leader's log and serves reads
        from repro.cluster import ReplicaStore, ReplicaSync, parse_address

        parse_address(args.follow)
        store = ReplicaStore(leader_address=args.follow, **options)
        sync = ReplicaSync(
            store, args.follow,
            args.replica_id or "replica-{}".format(os.getpid()),
            wait_s=args.poll_wait)
    else:
        store = DocumentStore(**options)
        if args.replicate:
            # a leader: the WAL doubles as the change feed that
            # followers and `subscribe`/`export` consumers read
            store.enable_replication(backlog=args.backlog)
    if store.recovery is not None:
        # the report goes to stderr: stdout carries the listen banner
        for line in store.recovery.lines():
            sys.stderr.write("recover: {}\n".format(line))
    server = StoreServer(store, host=host, port=port,
                         unix_path=unix_path,
                         max_pipeline=args.max_pipeline,
                         metrics_listen=(
                             _parse_metrics_listen(args.metrics_listen)
                             if args.metrics_listen else None))

    async def _serve():
        await server.start()
        address = server.tcp_address
        # the bound address goes to stdout (and flushes) so a
        # supervisor using port 0 can discover the ephemeral port
        if address is not None:
            out.write("listening tcp {}:{}\n".format(*address))
        if unix_path is not None:
            out.write("listening unix {}\n".format(unix_path))
        metrics_address = server.metrics_http_address
        if metrics_address is not None:
            out.write("metrics http {}:{}\n".format(*metrics_address))
        if args.replicate or sync is not None:
            out.write("role {}\n".format(store.role))
        out.flush()
        # the sync loop starts after the listeners are up, so a peer
        # probing this node's status can already reach it while the
        # leader connection is still backing off
        if sync is not None:
            sync.start()
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    finally:
        if sync is not None:
            sync.stop()
    return 0


def cmd_store_recover(args, out):
    if not os.path.isdir(args.wal_dir):
        # recover inspects existing state; creating the directory here
        # would turn a path typo into fresh, durable-looking emptiness
        raise ReproError(
            "--wal-dir {} does not exist".format(args.wal_dir))
    policy = DurabilityPolicy.parse(args.durability or "log")
    store = DocumentStore(workers=args.workers, backend=args.backend,
                          max_code_length=args.max_code_length,
                          durability=policy, wal_dir=args.wal_dir)
    try:
        report = store.recovery
        if report is None:
            out.write("nothing to recover: {} holds no durable state\n"
                      .format(args.wal_dir))
            return 0
        for line in report.lines():
            out.write(line + "\n")
        if args.dump_dir is not None:
            os.makedirs(args.dump_dir, exist_ok=True)
            for doc_id, __ in report.documents:
                path = os.path.join(args.dump_dir, safe_filename(doc_id))
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(store.text(doc_id))
                out.write("wrote {}\n".format(path))
        if args.verify:
            oracle = replay_oracle(args.wal_dir)
            failures = []
            for doc_id, version in report.documents:
                expected_text, expected_version = oracle[doc_id]
                if (store.text(doc_id) != expected_text
                        or version != expected_version):
                    failures.append(doc_id)
            if failures:
                out.write("verify: FAILED for {}\n".format(
                    ", ".join(repr(d) for d in failures)))
                return 1
            out.write("verify: recovered state matches the stateless "
                      "replay oracle byte-for-byte\n")
    finally:
        store.close()
    return 0


def cmd_store_bench(args, out):
    report = run_store_benchmark(
        scale=args.scale, clients=args.clients, rounds=args.rounds,
        ops_per_round=args.ops, workers=args.workers,
        backend=args.backend, max_code_length=args.max_code_length,
        seed=args.seed, min_depth=args.min_depth)
    for line in report.lines():
        out.write(line + "\n")
    return 0


def _etl_store(args):
    """Open the local store an ETL command targets (``--wal-dir``)."""
    policy, wal_dir = _durability_policy(args)
    if wal_dir is None:
        raise ReproError("store import/export/query/metrics needs "
                         "--target host:port (a running server) or "
                         "--wal-dir (a durability directory)")
    store = DocumentStore(workers=args.workers, backend=args.backend,
                          max_code_length=args.max_code_length,
                          durability=policy, wal_dir=wal_dir)
    if store.recovery is not None:
        for line in store.recovery.lines():
            sys.stderr.write("recover: {}\n".format(line))
    return store


def cmd_store_import(args, out):
    from repro.etl import BulkImporter

    def progress(line):
        if args.verbose:
            out.write(line + "\n")

    store = client = None
    try:
        if args.target:
            from repro.api.client import StoreClient
            from repro.cluster import parse_address

            host, port = parse_address(args.target)
            client = StoreClient.connect(host=host, port=port)
            load = client.bulk_import
        else:
            store = _etl_store(args)
            load = store.bulk_load
        importer = BulkImporter(load, chunk_docs=args.chunk_docs,
                                max_errors=args.max_errors,
                                doc_prefix=args.doc_prefix,
                                progress=progress)
        report = importer.run(args.paths)
    finally:
        if client is not None:
            client.close()
        if store is not None:
            store.close()
    for reject in report.rejected:
        out.write("reject {}: {}\n".format(reject["source"],
                                           reject["reason"]))
    out.write("imported {} of {} document(s) ({} nodes, {} chunk(s), "
              "{} rejected)\n".format(
                  report.loaded, report.scanned, report.nodes,
                  report.chunks, len(report.rejected)))
    return 0


def cmd_store_export(args, out):
    from repro.etl import export_corpus

    def progress(line):
        if args.verbose:
            out.write(line + "\n")

    store = client = None
    try:
        if args.target:
            from repro.api.client import StoreClient
            from repro.cluster import parse_address

            host, port = parse_address(args.target)
            client = StoreClient.connect(host=host, port=port)
            export = client.export
        else:
            from repro.api.dispatch import StoreDispatcher

            store = _etl_store(args)
            export = StoreDispatcher(store).export
        result = export_corpus(export, out_dir=args.out_dir,
                               doc_ids=args.docs or None,
                               page_size=args.page_size,
                               form=args.format, progress=progress)
    finally:
        if client is not None:
            client.close()
        if store is not None:
            store.close()
    out.write("exported {} document(s) in {} page(s) to {}\n".format(
        result["docs"], result["pages"],
        args.out_dir if args.out_dir else "stdout report"))
    if result["token"]:
        out.write("resume token: {}\n".format(result["token"]))
    return 0


def _write_plan(plan, out):
    """Render an ``explain`` plan: one line per step with the choice
    the cost model made and the numbers it compared."""
    header = "plan: {} execution".format(plan.get("mode"))
    if plan.get("reason"):
        header += " ({})".format(plan["reason"])
    out.write(header + "\n")
    for number, record in enumerate(plan.get("steps", ()), 1):
        line = "  step {} {}: {}".format(
            number, record["step"], record["choice"])
        if "bucket" in record:
            line += " (bucket={}, est index={} vs walk={})".format(
                record["bucket"], record["est_index"],
                record["est_walk"])
        if record.get("reason"):
            line += " [{}]".format(record["reason"])
        if record.get("predicates"):
            line += " predicates: {}".format(
                ", ".join(record["predicates"]))
        if "out" in record:
            line += " -> {} node(s)".format(record["out"])
        out.write(line + "\n")


def cmd_store_query(args, out):
    store = client = None
    try:
        if args.target:
            from repro.api.client import StoreClient
            from repro.cluster import parse_address

            host, port = parse_address(args.target)
            client = StoreClient.connect(host=host, port=port)
            surface = client
        else:
            from repro.api.dispatch import StoreDispatcher

            store = _etl_store(args)
            surface = StoreDispatcher(store)
        if args.explain:
            result = surface.explain(args.doc, args.path)
        else:
            result = surface.query(args.doc, args.path)
    finally:
        if client is not None:
            client.close()
        if store is not None:
            store.close()
    out.write("doc {} version {}: {} node(s)\n".format(
        result["doc_id"], result["version"], result["count"]))
    if args.explain:
        _write_plan(result["plan"], out)
    else:
        for node in result["nodes"]:
            out.write(node + "\n")
    return 0


def cmd_store_metrics(args, out):
    store = client = None
    try:
        if args.target:
            from repro.api.client import StoreClient
            from repro.cluster import parse_address

            host, port = parse_address(args.target)
            client = StoreClient.connect(host=host, port=port,
                                         retries=args.retries)
            surface = client
        else:
            from repro.api.dispatch import StoreDispatcher

            store = _etl_store(args)
            surface = StoreDispatcher(store)
        if args.json:
            result = surface.metrics(traces=args.traces,
                                     slow=args.slow)
            out.write(json.dumps(result, indent=2, sort_keys=True)
                      + "\n")
        else:
            out.write(surface.metrics(format="prometheus")["text"])
    finally:
        if client is not None:
            client.close()
        if store is not None:
            store.close()
    return 0


def _ms(seconds):
    return "-" if seconds is None else "{:.2f}".format(seconds * 1000)


def _top_rate(snap, previous, name, elapsed):
    """Per-second rate of one counter over the sample window (since
    process start on the first sample)."""
    now = snap.get("counters", {}).get(name, 0)
    base = (previous or {}).get("counters", {}).get(name, 0)
    return (now - base) / elapsed


def render_top_frame(snap, stats, previous):
    """One ``repro store top`` screen from a ``metrics`` snapshot, the
    server's ``stats`` and the previous snapshot (``None`` on the
    first poll: rates then average over the whole uptime)."""
    from repro.obs import percentile_from_buckets

    uptime = snap.get("uptime_seconds") or 0.0
    elapsed = (uptime - (previous.get("uptime_seconds") or 0.0)
               if previous else uptime)
    elapsed = max(elapsed, 1e-9)
    hists = snap.get("histograms", {})
    prev_hists = (previous or {}).get("histograms", {})
    lines = ["repro store top — uptime {:.0f}s, {} doc(s), "
             "window {:.1f}s".format(
                 uptime, len(stats.get("stats", [])), elapsed), ""]
    lines.append("{:<10}{:>10}{:>10}{:>10}{:>12}".format(
        "op", "ops/s", "p50 ms", "p99 ms", "total"))
    prefix = 'repro_store_op_latency_seconds{op="'
    for key in sorted(hists):
        if not key.startswith(prefix):
            continue
        series = hists[key]
        counts = series["counts"]
        prev_counts = prev_hists.get(key, {}).get("counts")
        if prev_counts and len(prev_counts) == len(counts):
            counts = [a - b for a, b in zip(counts, prev_counts)]
        lines.append("{:<10}{:>10.1f}{:>10}{:>10}{:>12}".format(
            key[len(prefix):-2], sum(counts) / elapsed,
            _ms(percentile_from_buckets(series["buckets"], counts,
                                        0.5)),
            _ms(percentile_from_buckets(series["buckets"], counts,
                                        0.99)),
            series["count"]))
    gauges = snap.get("gauges", {})
    lines.append("")
    lines.append(
        "fsyncs/s {:.1f}   wal KB/s {:.1f}   frames in/s {:.1f}   "
        "connections {}   pending {}".format(
            _top_rate(snap, previous, "repro_wal_fsyncs_total",
                      elapsed),
            _top_rate(snap, previous, "repro_wal_bytes_total",
                      elapsed) / 1024.0,
            sum(_top_rate(snap, previous, key, elapsed)
                for key in snap.get("counters", {})
                if key.startswith("repro_server_frames_in_total")),
            gauges.get("repro_server_connections", 0),
            gauges.get("repro_store_pending_submissions", 0)))
    replication = stats.get("replication")
    if replication is None:
        lines.append("replication: off")
    elif replication.get("role") == "leader":
        lines.append(
            "replication: leader seq={} subscribers={} "
            "max_lag_records={}".format(
                replication.get("seq"),
                len(replication.get("subscribers", {})),
                gauges.get("repro_replication_max_lag_records", 0)))
    else:
        lines.append(
            "replication: replica of {} behind={} lag={}s "
            "connected={}".format(
                replication.get("leader"), replication.get("behind"),
                replication.get(
                    "lag_seconds",
                    gauges.get("repro_replication_lag_seconds", 0)),
                "yes" if replication.get("connected") else "no"))
    return "\n".join(lines) + "\n"


def cmd_store_top(args, out):
    from repro.api.client import StoreClient
    from repro.cluster import parse_address

    host, port = parse_address(args.target)
    with StoreClient.connect(host=host, port=port,
                             retries=args.retries) as client:
        previous = None
        polls = 0
        while args.iterations is None or polls < args.iterations:
            if polls:
                time.sleep(args.interval)
            snap = client.metrics()
            stats = client.stats()
            frame = render_top_frame(snap, stats, previous)
            if not args.no_clear:
                out.write("\x1b[2J\x1b[H")  # clear screen, home cursor
            out.write(frame)
            out.flush()
            previous = snap
            polls += 1
    return 0


def cmd_invert(args, out):
    document = _load_document(args.document)
    pul = _load_pul(args.pul)
    forward, inverse = invert_pul(pul, document)
    if args.forward:
        out.write(pul_to_xml(forward) + "\n")
    else:
        out.write(pul_to_xml(inverse) + "\n")
    return 0


def cmd_cluster_promote(args, out):
    from repro.cluster import parse_address

    from repro.api.client import StoreClient

    host, port = parse_address(args.node)
    with StoreClient.connect(host=host, port=port,
                             retries=args.retries) as client:
        result = client.promote(
            allow_non_durable=args.allow_non_durable)
    out.write("{} is now {} (applied_seq={}{})\n".format(
        args.node, result.get("role"), result.get("applied_seq"),
        "" if result.get("promoted") else "; was already promoted"))
    return 0


def cmd_cluster_status(args, out):
    from repro.api.client import StoreClient
    from repro.cluster import parse_address

    failures = 0
    for node in args.nodes:
        host, port = parse_address(node)
        try:
            with StoreClient.connect(host=host, port=port,
                                     retries=args.retries) as client:
                stats = client.stats()
        except (ReproError, OSError) as error:
            out.write("node {}: unreachable ({})\n".format(node, error))
            failures += 1
            continue
        docs = len(stats.get("stats", []))
        replication = stats.get("replication")
        if replication is None:
            out.write("node {}: standalone, {} doc(s)\n".format(node,
                                                                docs))
        elif replication.get("role") == "leader":
            subscribers = replication.get("subscribers", {})
            lags = ", ".join(
                "{} lag={}".format(name, state.get("lag"))
                for name, state in sorted(subscribers.items())) or "-"
            out.write(
                "node {}: leader seq={} wal=gen{}@{} {} doc(s), "
                "subscribers: {}\n".format(
                    node, replication.get("seq"),
                    replication.get("wal", {}).get("generation"),
                    replication.get("wal", {}).get("offset"),
                    docs, lags))
        else:
            out.write(
                "node {}: replica of {} applied_seq={} behind={} "
                "connected={} {} doc(s){}\n".format(
                    node, replication.get("leader"),
                    replication.get("applied_seq"),
                    replication.get("behind"),
                    "yes" if replication.get("connected") else "no",
                    docs,
                    " last_error={!r}".format(replication["last_error"])
                    if replication.get("last_error") else ""))
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    produce = commands.add_parser(
        "produce", help="compile an XQuery Update expression into a PUL")
    produce.add_argument("document")
    produce.add_argument("query")
    produce.add_argument("--origin", default=None,
                         help="producer name recorded in the PUL")
    produce.set_defaults(func=cmd_produce)

    reduce_cmd = commands.add_parser("reduce", help="reduce a PUL")
    reduce_cmd.add_argument("document", nargs="?", default=None,
                            help="document for structural information "
                                 "(defaults to the PUL's labels)")
    reduce_cmd.add_argument("pul")
    group = reduce_cmd.add_mutually_exclusive_group()
    group.add_argument("--deterministic", action="store_true")
    group.add_argument("--canonical", action="store_true")
    reduce_cmd.set_defaults(func=cmd_reduce)

    integrate_cmd = commands.add_parser(
        "integrate", help="integrate parallel PULs")
    integrate_cmd.add_argument("--document", default=None)
    integrate_cmd.add_argument("puls", nargs="+")
    integrate_cmd.add_argument("--reconcile", action="store_true")
    integrate_cmd.add_argument(
        "--policy", action="append", type=_parse_policy, metavar="P:FLAGS",
        help="producer policy, e.g. alice:order,inserted")
    integrate_cmd.set_defaults(func=cmd_integrate)

    aggregate_cmd = commands.add_parser(
        "aggregate", help="aggregate sequential PULs")
    aggregate_cmd.add_argument("puls", nargs="+")
    aggregate_cmd.add_argument("--strict", action="store_true",
                               help="refuse the generalized-repC extension")
    aggregate_cmd.set_defaults(func=cmd_aggregate)

    apply_cmd = commands.add_parser("apply", help="apply a PUL")
    apply_cmd.add_argument("document")
    apply_cmd.add_argument("pul")
    apply_cmd.add_argument("--in-memory", action="store_true",
                           help="use the in-memory evaluator")
    apply_cmd.set_defaults(func=cmd_apply)

    store_cmd = commands.add_parser(
        "store", help="resident multi-document update store")
    store_commands = store_cmd.add_subparsers(dest="store_command",
                                              required=True)

    def _store_options(parser_):
        parser_.add_argument("--workers", type=int, default=2,
                             help="concurrent reduction workers")
        parser_.add_argument("--backend", default="thread",
                             choices=("thread", "serial"))
        parser_.add_argument("--max-code-length", type=int,
                             default=DEFAULT_MAX_CODE_LENGTH,
                             help="containment-code headroom budget "
                                  "before a full relabel")

    def _durability_options(parser_, target=None):
        """``target`` (its help text) also adds ``--target``, in one
        mutually exclusive group with ``--wal-dir``."""
        where = parser_
        if target is not None:
            where = parser_.add_mutually_exclusive_group()
            where.add_argument("--target", default=None,
                               metavar="HOST:PORT", help=target)
        where.add_argument("--wal-dir", default=None,
                           help="durability directory (write-ahead "
                                "log + snapshots); existing state is "
                                "recovered on start")
        parser_.add_argument("--durability", default=None,
                             help="off, log, or log+snapshot[:N] "
                                  "(default: log when --wal-dir is set)")
        parser_.add_argument("--snapshot-every", type=int, default=None,
                             help="batches between snapshot compactions "
                                  "(log+snapshot mode)")

    def _observability_options(parser_):
        parser_.add_argument("--no-metrics", action="store_true",
                             help="disable the metrics registry "
                                  "(instrumentation sites become "
                                  "no-ops)")
        parser_.add_argument("--metrics-listen", default=None,
                             metavar="HOST:PORT",
                             help="also serve GET /metrics (Prometheus "
                                  "text exposition) over HTTP")
        parser_.add_argument("--slow-query-s", type=float, default=None,
                             metavar="S",
                             help="log queries slower than S seconds "
                                  "(with their recorded plans)")
        parser_.add_argument("--slow-flush-s", type=float, default=None,
                             metavar="S",
                             help="log flushes slower than S seconds "
                                  "(with per-stage timings)")
        parser_.add_argument("--slow-log", default=None, metavar="FILE",
                             help="append slow-log entries to FILE as "
                                  "JSONL (default: in-memory ring "
                                  "only)")

    serve_cmd = store_commands.add_parser(
        "serve", help="serve the store over the network protocol")
    _store_options(serve_cmd)
    _durability_options(serve_cmd)
    _observability_options(serve_cmd)
    serve_cmd.add_argument("--listen", required=True,
                           metavar="HOST:PORT|unix:PATH",
                           help="address to serve on (port 0 picks an "
                                "ephemeral port, reported on stdout)")
    serve_cmd.add_argument("--max-pipeline", type=int, default=32,
                           help="per-connection bound on queued "
                                "pipelined requests")
    serve_cmd.add_argument("--on-conflict", default="error",
                           choices=("error", "reconcile"))
    role = serve_cmd.add_mutually_exclusive_group()
    role.add_argument("--replicate", action="store_true",
                      help="serve as a replication leader: publish the "
                           "write-ahead log as a change feed for "
                           "followers and subscribe/export (needs "
                           "--wal-dir)")
    role.add_argument("--follow", default=None, metavar="HOST:PORT",
                      help="serve as a read replica streaming this "
                           "leader's write-ahead log")
    serve_cmd.add_argument("--backlog", type=int, default=None,
                           help="records a leader retains for followers "
                                "before they must re-bootstrap "
                                "(--replicate)")
    serve_cmd.add_argument("--replica-id", default=None,
                           help="name announced to the leader (--follow; "
                                "default: replica-<pid>)")
    serve_cmd.add_argument("--poll-wait", type=float, default=2.0,
                           help="replica long-poll window in seconds "
                                "(--follow)")
    serve_cmd.set_defaults(func=cmd_store_serve)

    recover_cmd = store_commands.add_parser(
        "recover", help="rebuild store state from a durability "
                        "directory and report it")
    _store_options(recover_cmd)
    recover_cmd.add_argument("--wal-dir", required=True,
                             help="durability directory to recover")
    recover_cmd.add_argument("--durability", default=None,
                             help="policy to reopen the directory "
                                  "under (default: log)")
    recover_cmd.add_argument("--verify", action="store_true",
                             help="byte-compare the recovered state "
                                  "against the stateless replay oracle")
    recover_cmd.add_argument("--dump-dir", default=None,
                             help="write each recovered document's XML "
                                  "into this directory")
    recover_cmd.set_defaults(func=cmd_store_recover)

    store_bench_cmd = store_commands.add_parser(
        "bench", help="resident-incremental vs parse+full-relabel "
                      "throughput")
    _store_options(store_bench_cmd)
    store_bench_cmd.add_argument("--scale", type=float, default=0.05,
                                 help="XMark document scale")
    store_bench_cmd.add_argument("--clients", type=int, default=4)
    store_bench_cmd.add_argument("--rounds", type=int, default=8)
    store_bench_cmd.add_argument("--ops", type=int, default=50,
                                 help="operations per round")
    store_bench_cmd.add_argument("--seed", type=int, default=11)
    store_bench_cmd.add_argument("--min-depth", type=int, default=0)
    store_bench_cmd.set_defaults(func=cmd_store_bench)

    def _etl_target_options(parser_):
        _durability_options(parser_, target="a running store server (the "
                                            "leader in a cluster)")
        parser_.add_argument("--verbose", action="store_true",
                             help="report per-chunk/per-page progress")

    import_cmd = store_commands.add_parser(
        "import", help="streaming bulk load: XML files/directories -> "
                       "parse -> label -> group-committed chunks")
    _store_options(import_cmd)
    _etl_target_options(import_cmd)
    import_cmd.add_argument("paths", nargs="+",
                            help=".xml files or directories (walked "
                                 "recursively); doc id = file stem")
    import_cmd.add_argument("--doc-prefix", default="",
                            help="prefix prepended to every doc id")
    import_cmd.add_argument("--chunk-docs", type=int,
                            default=DEFAULT_CHUNK_DOCS,
                            help="documents per group-committed chunk")
    import_cmd.add_argument("--max-errors", type=int, default=None,
                            help="abort (import-aborted) after this "
                                 "many rejects (default: tolerate all; "
                                 "rejects are reported either way)")
    import_cmd.set_defaults(func=cmd_store_import)

    export_cmd = store_commands.add_parser(
        "export", help="filtered, resumable corpus dump from pinned "
                       "MVCC versions")
    _store_options(export_cmd)
    _etl_target_options(export_cmd)
    export_cmd.add_argument("--out-dir", default=None,
                            help="write each document's XML here "
                                 "(default: report only)")
    export_cmd.add_argument("--docs", nargs="*", default=None,
                            help="restrict the dump to these doc ids")
    export_cmd.add_argument("--page-size", type=int, default=64,
                            help="documents per export page")
    export_cmd.add_argument("--format", default="xml",
                            choices=("xml", "state"),
                            help="payload form: serialized xml or "
                                 "snapshot-form state (follower bootstrap)")
    export_cmd.set_defaults(func=cmd_store_export)

    query_cmd = store_commands.add_parser(
        "query", help="read-only path query against a pinned MVCC "
                      "version (server or local WAL directory); "
                      "--explain prints the chosen plan per step")
    _store_options(query_cmd)
    _etl_target_options(query_cmd)
    query_cmd.add_argument("doc", help="document id")
    query_cmd.add_argument("path",
                           help="abbreviated-XPath path expression")
    query_cmd.add_argument("--explain", action="store_true",
                           help="print the per-step plan the cost "
                                "model chose instead of the nodes")
    query_cmd.set_defaults(func=cmd_store_query)

    metrics_cmd = store_commands.add_parser(
        "metrics", help="dump the observability metrics (Prometheus "
                        "text exposition by default)")
    _store_options(metrics_cmd)
    _durability_options(metrics_cmd, target="a running store server")
    metrics_cmd.add_argument("--retries", type=int, default=1,
                             help="connect retries with backoff")
    metrics_cmd.add_argument("--json", action="store_true",
                             help="print the JSON snapshot instead of "
                                  "the Prometheus text form")
    metrics_cmd.add_argument("--traces", type=int, default=None,
                             metavar="N",
                             help="include the last N recorded span "
                                  "trees (--json only)")
    metrics_cmd.add_argument("--slow", type=int, default=None,
                             metavar="N",
                             help="include the last N slow-log entries "
                                  "(--json only)")
    metrics_cmd.set_defaults(func=cmd_store_metrics)

    top_cmd = store_commands.add_parser(
        "top", help="live dashboard over a running server: ops/sec, "
                    "latency percentiles, fsync rate, replication lag")
    top_cmd.add_argument("--target", required=True, metavar="HOST:PORT",
                         help="the server to watch")
    top_cmd.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls")
    top_cmd.add_argument("--iterations", type=int, default=None,
                         metavar="N",
                         help="stop after N frames (default: poll "
                              "until interrupted)")
    top_cmd.add_argument("--no-clear", action="store_true",
                         help="append frames instead of redrawing the "
                              "screen (log-friendly)")
    top_cmd.add_argument("--retries", type=int, default=1,
                         help="connect retries with backoff")
    top_cmd.set_defaults(func=cmd_store_top)

    cluster_cmd = commands.add_parser(
        "cluster", help="operate replicated `store serve` nodes "
                        "(manual failover, replication status)")
    cluster_commands = cluster_cmd.add_subparsers(dest="cluster_command",
                                                  required=True)

    promote_cmd = cluster_commands.add_parser(
        "promote", help="convert a caught-up replica into a leader "
                        "(manual failover)")
    promote_cmd.add_argument("--node", required=True, metavar="HOST:PORT",
                             help="the replica to promote")
    promote_cmd.add_argument("--retries", type=int, default=2,
                             help="connect retries with backoff")
    promote_cmd.add_argument("--allow-non-durable", action="store_true",
                             help="salvage-promote a replica that has "
                                  "no write-ahead log (its acked "
                                  "batches die with the process)")
    promote_cmd.set_defaults(func=cmd_cluster_promote)

    status_cmd = cluster_commands.add_parser(
        "status", help="replication role, stream position and lag of "
                       "each node")
    status_cmd.add_argument("nodes", nargs="+", metavar="HOST:PORT")
    status_cmd.add_argument("--retries", type=int, default=1,
                            help="connect retries with backoff")
    status_cmd.set_defaults(func=cmd_cluster_status)

    invert_cmd = commands.add_parser(
        "invert", help="compute the inverse of a PUL")
    invert_cmd.add_argument("document")
    invert_cmd.add_argument("pul")
    invert_cmd.add_argument("--forward", action="store_true",
                            help="print the pinned forward PUL instead")
    invert_cmd.set_defaults(func=cmd_invert)
    return parser


def main(argv=None, out=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = out or sys.stdout
    try:
        return args.func(args, out)
    except ReproError as error:
        # the stable code keeps scripted callers' stderr greppable
        sys.stderr.write("error [{}]: {}\n".format(error.code, error))
        return 2
    except OSError as error:
        sys.stderr.write("error [os]: {}\n".format(error))
        return 2


if __name__ == "__main__":
    sys.exit(main())
