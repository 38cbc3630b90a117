"""The multi-document update store.

A :class:`DocumentStore` is the executor of the paper's distributed
setting (Section 4): producers — its clients, each a ``client=`` name —
ship PULs, and the store reasons on them and makes them effective. It
keeps many parsed documents *and their containment labelings* resident
between update batches, accepts PUL submissions from concurrent
clients, coalesces them into per-document batches, routes every batch
through the sharded reduction pipeline (:mod:`repro.pipeline`) and makes
it effective in place on the writer's private path copy of the
document — only the nodes the batch changes and their ancestors are
copied (:func:`repro.apply.inplace.apply_batch_in_place`, then one
atomic publish — :mod:`repro.store.versions`) — which maintains the labeling
*incrementally*: only the nodes of touched subtrees gain or lose labels,
existing containment codes are never rewritten (the update-tolerance
property of Section 4.1).

Incremental maintenance is not free forever: every insertion between two
adjacent codes lengthens the fresh code by about one digit, so a hot spot
degrades code length linearly with the number of batches that hit it.
The store watches the labeling's :attr:`max_code_length` and, when it
crosses ``max_code_length`` (the headroom budget), falls back to a full
relabel — one :meth:`ContainmentLabeling.build` pass that rebalances every
code back to ``O(log n)`` digits. The differential test suite checks that
the resident-incremental path stays byte-identical to the stateless
relabel → reduce → apply oracle
(:class:`~repro.store.baseline.StatelessBaseline`) on every batch.

Batch coalescing follows the paper's two intents: submissions from the
*same* client within a window are a sequential chain and are collapsed
with the aggregation engine (later PULs may target nodes inserted by
earlier ones — rule D6); the per-client aggregates are then parallel
intents and are merged as a union (Definition 5). An incompatible union
either fails the batch (``on_conflict="error"``, the default) or is
reconciled under per-client policies (``on_conflict="reconcile"``).

A batch that fails — while coalescing, on the nesting bound, or later
with an XQUF dynamic error found only after mutation — changes
nothing: the path copy is abandoned, the published version, its labels
and its index are the same objects as before, and the pending queue is
restored.

This module holds the write half: the residency table, the document
lifecycle, submission, the flush pipeline (``_execute_batch`` ->
``_run_batch`` -> ``_publish_batch``), durability and the one replay
switch ``_apply_record``. A resident entry and its publish protocol are
:class:`~repro.store.versions.StoredDocument`; the reads and their memo
policy are the base class :class:`~repro.store.reads.StoreReads`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro.aggregation import aggregate
from repro.apply.inplace import apply_batch_in_place, check_nesting, classify
from repro.errors import (
    ClusterError,
    QueryEvaluationError,
    RecoveryError,
    ReproError,
    StoreClosedError,
)
from repro.integration import reconcile
from repro.labeling.scheme import ContainmentLabeling
from repro.obs import StoreObs
from repro.obs.collector import collector_paused
from repro.pipeline.merge import merge_shards
from repro.pipeline.parallel import ParallelReducer
from repro.pipeline.shard import shard_pul
from repro.pul.pul import merge as merge_puls
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.store.durability import (
    DurabilityManager,
    DurabilityPolicy,
    RecoveryReport,
    document_payload,
    restore_document,
)
from repro.store.reads import StoreReads
from repro.store.versions import (
    DEFAULT_MAX_CODE_LENGTH,
    DocumentVersion,
    StoredDocument,
)
from repro.xdm.document import Document
from repro.xdm.parser import parse_document


def coalesce_batch(pending, labeling, on_conflict="error", policies=None):
    """Collapse pending submissions into one batch PUL.

    ``pending`` is a list of ``(arrival, client, pul)``. Same-client runs
    are sequential chains (collapsed with the aggregation engine, arrival
    order); distinct clients are parallel intents (merged as a union —
    Definition 5 — or reconciled under ``policies`` when
    ``on_conflict="reconcile"``). Labels for all targets are attached from
    ``labeling``. Shared by the resident store and the stateless baseline
    so the two differ only in the machinery under test.
    """
    by_client = {}
    order = []
    for arrival, client, pul in sorted(pending, key=lambda p: p[0]):
        if client not in by_client:
            by_client[client] = []
            order.append(client)
        by_client[client].append(pul)
    aggregates = []
    for client in order:
        chain = by_client[client]
        combined = chain[0].copy() if len(chain) == 1 else aggregate(chain)
        combined.attach_labels(labeling)
        aggregates.append(combined)
    if len(aggregates) == 1:
        return aggregates[0]
    if on_conflict == "reconcile":
        return reconcile(aggregates, policies=policies or {})
    merged = aggregates[0]
    for other in aggregates[1:]:
        merged = merge_puls(merged, other)
    return merged


class BatchResult:
    """Telemetry of one flushed batch."""

    __slots__ = ("doc_id", "version", "clients", "submitted_ops",
                 "reduced_ops", "shard_sizes", "relabel",
                 "max_code_length", "index_maintenance")

    def __init__(self, doc_id, version, clients, submitted_ops,
                 reduced_ops, shard_sizes, relabel,
                 max_code_length, index_maintenance="rebuild"):
        self.doc_id = doc_id
        self.version = version
        self.clients = clients
        self.submitted_ops = submitted_ops
        self.reduced_ops = reduced_ops
        self.shard_sizes = shard_sizes
        self.relabel = relabel          # "incremental" | "full"
        self.max_code_length = max_code_length
        # "incremental" (derived from the reduced PUL) or "rebuild"
        self.index_maintenance = index_maintenance

    def __repr__(self):
        return ("BatchResult(doc={!r}, v{}, {} clients, {} -> {} ops, "
                "relabel={})".format(
                    self.doc_id, self.version, self.clients,
                    self.submitted_ops, self.reduced_ops, self.relabel))


class DocumentStore(StoreReads):
    """Resident multi-document server over the sharded pipeline.

    Parameters
    ----------
    workers / backend:
        Concurrency of the per-batch shard reduction: every batch is
        split into at most ``workers`` shards, and ``backend`` is
        ``"thread"`` (a single warm :class:`ParallelReducer` pool shared
        by all documents) or ``"serial"``.
    max_code_length:
        Headroom budget of the documents this store opens: when a
        labeling's longest containment code exceeds this many digits
        after a batch, the document is fully relabeled (codes
        rebalanced); below it, labels are maintained incrementally. A
        document keeps the budget it was opened under — its payload
        carries it — so a restart, a replica or an ``open`` record
        replayed here adopts the logged budget; only a payload written
        before payloads carried one restores under this store's.
    on_conflict:
        ``"error"`` (reject the whole batch, pending queue preserved) or
        ``"reconcile"`` (resolve cross-client conflicts under
        ``policies`` through the integration layer).
    policies:
        ``client name -> ProducerPolicy`` used by ``"reconcile"``.
    durability / wal_dir:
        A :class:`DurabilityPolicy` (or its CLI spec string) and the
        directory holding the write-ahead log and snapshots — only a
        durable policy takes one, and a directory has one owner store
        at a time (:class:`DurabilityManager`). With a
        durable policy every flushed batch is logged (write-ahead,
        fsynced) before the flush returns, and — mode ``snapshot`` —
        the log is compacted into a full-state snapshot every
        ``snapshot_every`` batches. If ``wal_dir`` already holds durable
        state the store *recovers* it on construction: latest valid
        snapshot, then the logged batch tail replayed through the
        incremental-relabel machinery (a torn final record is dropped);
        the :class:`RecoveryReport` is left on :attr:`recovery`.
        Concurrent flushes *group-commit*: each batch record is
        buffered under the log lock and one leader fsync makes a whole
        train of them durable together, so N documents flushing at
        once pay ~1 fsync instead of N — no flush ever returns before
        its own record is behind the synced horizon.
    group_window:
        extra seconds a group-commit leader waits before the shared
        fsync so more concurrent flushes can board its train (0 — the
        default — fsyncs immediately; trains still form naturally
        while a previous fsync is in flight).
    metrics:
        ``False`` swaps the metrics registry for a no-op null registry
        (instrumentation sites stay in place and cost one no-op call;
        tracing and the slow log are unaffected).
    slow_query_s / slow_flush_s / slow_log_path:
        Thresholds (seconds; ``None`` disables) and optional JSONL
        path of the slow-query / slow-flush log (:attr:`obs`).
    """

    def __init__(self, workers=2, backend="thread",
                 max_code_length=DEFAULT_MAX_CODE_LENGTH,
                 on_conflict="error", policies=None,
                 durability=None, wal_dir=None, group_window=0.0,
                 metrics=True, slow_query_s=None, slow_flush_s=None,
                 slow_log_path=None):
        if on_conflict not in ("error", "reconcile"):
            raise ReproError(
                "on_conflict must be 'error' or 'reconcile', got {!r}"
                .format(on_conflict))
        if max_code_length < 1:
            raise ReproError("max_code_length must be >= 1, got {}"
                             .format(max_code_length))
        self.workers = workers
        self.max_code_length = max_code_length
        self.on_conflict = on_conflict
        self.policies = dict(policies) if policies else {}
        self._entries = {}
        self._lock = threading.Lock()
        #: set once by close(): from then on every write is refused
        #: (StoreClosedError); reads go on
        self._closed = False
        self._arrivals = 0
        self._replaying = False
        self._compacting = threading.Lock()
        self.recovery = None
        #: a standalone store is trivially its own leader; the cluster
        #: subsystem's :class:`~repro.cluster.replica.ReplicaStore`
        #: overrides this (and flips it back on promotion)
        self.role = "leader"
        #: the :class:`~repro.cluster.feed.ReplicationSource` feeding
        #: followers, once :meth:`enable_replication` has run
        self.replication = None
        #: the observability facade (:class:`~repro.obs.StoreObs`)
        #: every subsystem serving this store shares — built before
        #: the durability manager so the fsync path is instrumented
        #: from the first record
        super().__init__(StoreObs(
            enabled=metrics, slow_query_s=slow_query_s,
            slow_flush_s=slow_flush_s, slow_log_path=slow_log_path))
        obs = self.obs
        self._m_submits = obs.counter(
            "repro_store_submits_total", "PUL submissions accepted")
        self._m_pending = obs.gauge(
            "repro_store_pending_submissions",
            "Submissions queued and not yet flushed")
        self._m_flushes = obs.counter(
            "repro_store_flushes_total", "Batches flushed (published)")
        self._m_flush_failures = obs.counter(
            "repro_store_flush_failures_total",
            "Flushes that failed and restored their pending queue")
        self._op_latency = {
            op: obs.histogram("repro_store_op_latency_seconds",
                              "Store operation latency", op=op)
            for op in ("submit", "flush", "open")}
        if isinstance(durability, str):
            durability = DurabilityPolicy.parse(durability)
        if durability is None:
            durability = (DurabilityPolicy("log") if wal_dir is not None
                          else DurabilityPolicy("off"))
        if durability.durable != (wal_dir is not None):
            # a wal_dir under a policy that keeps nothing would be
            # silently ignored: the caller believes writes are durable
            raise ReproError(
                "durability policy {!r} {} a wal_dir".format(
                    durability, "needs" if durability.durable
                    else "keeps nothing in"))
        self.durability_policy = durability
        self._durability = None
        self._reducer = ParallelReducer(workers=workers, backend=backend)
        if durability.durable:
            try:
                self._durability = DurabilityManager(
                    wal_dir, durability, group_window=group_window,
                    obs=obs)
                self._restart()
            except Exception:
                # releases the directory too: a store that failed to
                # start owns nothing
                self.close()
                raise

    def _restart(self):
        """Recover the directory's durable state and open the log for
        appending, with the cyclic collector paused: everything a
        restore allocates stays alive, so a collection meanwhile would
        free nothing (store README, invariant 10). The pause ends with
        one young-generation pass, timed as stage ``collect``."""
        obs = self.obs
        with collector_paused():
            with obs.recovery_stage("load"):
                state = self._durability.load()
            if not state.empty:
                self._recover_state(state)
            self._durability.start()
            resumed = time.perf_counter()
        obs.recovery_histogram("collect").observe(
            time.perf_counter() - resumed)

    # -- document lifecycle --------------------------------------------------

    def open(self, doc_id, source):
        """Make ``source`` (XML text or a :class:`Document`) resident
        under ``doc_id``; parses and labels it once — a one-document
        :meth:`bulk_load`."""
        start = time.perf_counter()
        self._check_writable("open")
        entries = self._prepare([(doc_id, source)])
        self._make_resident(entries)
        self._op_latency["open"].observe(time.perf_counter() - start)
        return entries[0]

    def bulk_load(self, docs):
        """Make a chunk of documents resident in one durable step.

        ``docs`` is an iterable of ``{"doc_id", "xml"}`` objects (the
        ``bulk-import`` wire shape; ``xml`` may also be a parsed
        :class:`Document`). Parsing and labeling — the expensive part —
        run outside the store lock; residency is then installed
        atomically: either every document in the chunk becomes resident
        (their ``open`` records board one commit train, so the chunk
        pays ~1 fsync, not one per document) or none does. A duplicate
        ``doc_id`` — against the store or within the chunk — fails the
        whole chunk, so an ETL retry can resubmit it verbatim.

        Returns ``{"loaded", "nodes", "doc_ids"}``.
        """
        self._check_writable("bulk-import")
        prepared = self._prepare(docs)
        self._make_resident(prepared)
        return {"loaded": len(prepared),
                "nodes": sum(len(entry.published.document)
                             for entry in prepared),
                "doc_ids": [entry.doc_id for entry in prepared]}

    def _prepare(self, docs):
        """The parse -> label -> entry step of :meth:`open` and
        :meth:`bulk_load`: one fresh, not yet resident entry per
        ``{"doc_id", "xml"}`` object or ``(doc_id, source)`` pair."""
        prepared = []
        chunk_ids = set()
        for doc in docs:
            if isinstance(doc, dict):
                doc_id, source = doc.get("doc_id"), doc.get("xml")
            else:
                doc_id, source = doc
            if doc_id is None or source is None:
                raise ReproError("a document to load needs doc_id and xml")
            if doc_id in chunk_ids:
                raise ReproError(
                    "bulk-load chunk names {!r} twice".format(doc_id))
            chunk_ids.add(doc_id)
            if not isinstance(source, Document):
                source = parse_document(source)
            labeling = ContainmentLabeling().build(source)
            prepared.append(StoredDocument(DocumentVersion(
                doc_id, 0, source, labeling, self.max_code_length)))
        return prepared

    def _make_resident(self, entries):
        """Install ``entries`` (all of them or none) behind their
        durable ``open`` records: residency changes only after the log
        acknowledged them, so a failed fsync leaves no trace.

        The records carry the full snapshot-form state, so recovery
        restores the same identifiers and labels even when the caller's
        source text differs from our serialization. Logging and
        installing share one hold of the store lock: a concurrent
        compaction cannot strand the records in a segment its snapshot
        supersedes, and an export that read a stream position past them
        finds the documents."""
        with self._lock:
            self._check_writable()
            for entry in entries:
                if entry.doc_id in self._entries:
                    raise ReproError(
                        "document {!r} is already resident".format(
                            entry.doc_id))
            if self._durability is not None:
                self._durability.log_open(
                    *[document_payload(entry.published)
                      for entry in entries])
            for entry in entries:
                self._entries[entry.doc_id] = entry

    def close_document(self, doc_id):
        """Evict a resident document (pending submissions are lost)."""
        self._check_writable("close")
        with self._lock:
            entry = self._require(doc_id)
        self._evict(entry)

    def _evict(self, entry):
        """Remove ``entry`` from the store — the one eviction routine,
        of :meth:`close_document` and of a replayed ``close`` record.

        An in-flight flush of the entry is waited out first: its batch
        record must precede the close record in the log, or replay
        finds a batch for a document the log already closed. The close
        is logged before the entry goes (a close the log refused evicts
        nothing), and then the entry's memo and tree are handed back
        (:meth:`_evicted`)."""
        with entry.flush_lock:
            with self._lock:
                self._check_writable()
                if self._entries.get(entry.doc_id) is not entry:
                    raise ReproError(
                        "document {!r} was closed concurrently".format(
                            entry.doc_id))
                if self._durability is not None and not self._replaying:
                    self._durability.log_close(entry.doc_id)
                del self._entries[entry.doc_id]
        self._evicted(entry)
        with entry.lock:
            self._m_pending.dec(len(entry.pending))

    def doc_ids(self):
        """The resident ids in ``str(doc_id)`` order — the order of
        ``export_state`` — so ids of mixed types still sort."""
        with self._lock:
            return sorted(self._entries, key=str)

    def __contains__(self, doc_id):
        with self._lock:
            return doc_id in self._entries

    def _check_writable(self, operation=None):
        """The one write guard: refuse a write on a closed store — the
        same refusal under every durability policy (:meth:`close`).

        Every client write calls it first, naming itself as
        ``operation`` (``open``, ``close``, ``bulk-import``, ``submit``,
        ``submit-xquery``, ``discard``, ``flush``), before it parses,
        compiles or queues anything;
        :class:`~repro.cluster.replica.ReplicaStore` overrides it to
        refuse those while it follows a leader. The re-checks under a
        lock and the replay switch name no operation."""
        if self._closed:
            raise StoreClosedError(
                "the store is closed: it accepts no writes")

    def _require(self, doc_id):
        entry = self._entries.get(doc_id)
        if entry is None:
            raise ReproError(
                "no resident document {!r} (open it first)".format(doc_id))
        return entry

    # -- submission ----------------------------------------------------------

    def submit(self, doc_id, pul, client=None):
        """Queue ``pul`` against ``doc_id``; returns the queue depth.

        Thread-safe: concurrent clients may submit against the same
        document. ``client`` defaults to the PUL's origin; submissions
        sharing a client name are treated as that client's sequential
        chain when the batch is coalesced.
        """
        start = time.perf_counter()
        self._check_writable("submit")
        entry = self._require(doc_id)
        if client is None:
            client = pul.origin
        with self._lock:
            arrival = self._arrivals
            self._arrivals += 1
        with entry.lock:
            entry.pending.append((arrival, client, pul))
            depth = len(entry.pending)
        self._m_submits.inc()
        self._m_pending.inc()
        self._op_latency["submit"].observe(time.perf_counter() - start)
        return depth

    def discard_pending(self, doc_id):
        """Withdraw everything queued against ``doc_id`` (e.g. after a
        rejected flush); returns the discarded submission count."""
        self._check_writable("discard")
        entry = self._require(doc_id)
        with entry.lock:
            dropped = len(entry.pending)
            entry.pending = []
        self._m_pending.dec(dropped)
        return dropped

    def submit_xquery(self, doc_id, expression, client=None):
        """Compile ``expression`` (XQuery Update text) against the
        resident document and queue the resulting PUL.

        This is the server-side producer of the paper's architecture:
        the client ships the update *expression*, target paths are
        evaluated against the latest *published* version (the
        labeling's labels travel with the PUL) and the compiled PUL
        joins the document's pending queue like any raw submission.
        Compilation holds the published version instead of taking the
        flush lock, so a concurrent in-place flush neither tears the
        paths nor blocks behind a slow compilation.

        Returns ``(depth, ops)``: the pending-queue depth after the
        submission and the compiled PUL's operation count.
        """
        # local import: repro.xquery pulls the parser/compiler stack in,
        # which the store core does not otherwise need
        from repro.xquery.compiler import compile_pul

        self._check_writable("submit-xquery")
        version = self._require(doc_id).published
        pul = compile_pul(expression, version.document,
                          labeling=version.labeling, origin=client)
        ops = len(pul)
        if not ops:
            raise QueryEvaluationError(
                "expression compiles to an empty PUL (no update "
                "expressions, or paths selecting nothing)")
        # submit re-validates residency: a document closed while the
        # compilation ran is rejected here, like any raw submission
        depth = self.submit(doc_id, pul, client=client)
        return depth, ops

    # -- batch execution -----------------------------------------------------

    def flush(self, doc_id):
        """Coalesce and execute everything pending against ``doc_id``.

        Returns a :class:`BatchResult`, or ``None`` when nothing was
        pending. Concurrent flushes of the same document are serialized
        (submissions stay concurrent). On any error the pending queue
        is restored and nothing else has changed: a batch rejected
        while coalescing (a cross-client conflict, an insert nesting
        elements past :data:`~repro.xdm.parser.MAX_ELEMENT_NESTING`) has
        touched nothing, and one that fails later fails on the private
        working pair, which is abandoned — the published version, its
        labels and its index stay the very objects they were.
        """
        start = time.perf_counter()
        self._check_writable("flush")
        entry = self._require(doc_id)
        with entry.flush_lock:
            with self._lock:
                # under the flush lock: close() releases the tree
                # under it, after which no batch may be applied
                self._check_writable()
                if self._entries.get(doc_id) is not entry:
                    raise ReproError(
                        "document {!r} was closed while the flush "
                        "waited".format(doc_id))
            with entry.lock:
                pending = entry.pending
                entry.pending = []
            if not pending:
                return None
            self._m_pending.dec(len(pending))
            try:
                with self.obs.collect_stages() as stages:
                    result = self._execute_batch(entry, pending)
            except Exception:
                self._m_pending.inc(len(pending))
                self._m_flush_failures.inc()
                with entry.lock:
                    entry.pending = pending + entry.pending
                raise
        duration = time.perf_counter() - start
        self._m_flushes.inc()
        self._op_latency["flush"].observe(duration)
        self.obs.slowlog.note_flush(
            doc_id, result.version, duration, stages,
            trace_id=self.obs.tracer.current_trace_id())
        return result

    def flush_all(self):
        """Flush every resident document; returns its batch results.

        One document's failing batch must not starve the others: every
        document is attempted, each failing one keeps its pending queue
        (per :meth:`flush`), and a single :class:`ReproError` naming all
        failures is raised afterwards.
        """
        self._check_writable("flush")
        results = []
        errors = []
        for doc_id in self.doc_ids():
            try:
                result = self.flush(doc_id)
            except ReproError as error:
                if doc_id not in self:
                    # closed cleanly while flush_all iterated — nothing
                    # was lost and nothing failed, so reporting it as a
                    # batch failure would be spurious
                    continue
                errors.append((doc_id, error))
                continue
            if result is not None:
                results.append(result)
        if errors:
            raise ReproError(
                "flush failed for {}: {}".format(
                    ", ".join(repr(doc_id) for doc_id, __ in errors),
                    "; ".join(str(error) for __, error in errors)))
        return results

    def _execute_batch(self, entry, pending):
        # whichever step fails, the caller restoring the queue is the
        # whole recovery: coalescing and the nesting check precede the
        # logged-version fence (nothing logged, nothing checked out)
        # and _run_batch abandons its own working pair
        labeling = entry.published.labeling
        with self.obs.stage("coalesce"):
            batch = coalesce_batch(pending, labeling,
                                   on_conflict=self.on_conflict,
                                   policies=self.policies)
            check_nesting(batch, labeling)
        clients = len({client for __, client, __unused in pending})
        return self._run_batch(entry, batch, clients)

    def _run_batch(self, entry, batch, clients):
        """Make one coalesced ``batch`` effective on ``entry``.

        Shared by the live flush path and WAL replay: both shard the
        batch, reduce, merge, apply in place with per-site incremental
        label maintenance (:func:`apply_batch_in_place`) and run the
        headroom rule — so a replayed batch reproduces the original
        flush exactly. On the live path the batch is appended to the
        write-ahead log (and made durable) *before* application; a batch
        whose application then fails is a no-op — the working pair is
        abandoned, the published version stays the one from before, and
        only the batch record is left behind — and fails the same way on
        every host that replays the record.
        """
        try:
            result = self._publish_batch(entry, batch, clients)
        except Exception:
            entry.abandon()
            raise
        finally:
            # coalescing copied the submitted parameter trees and the
            # apply inserts copies of its own: the batch's trees are the
            # store's, and nothing reads them again
            batch.release_trees()
        if self._durability is not None and not self._replaying \
                and self._durability.snapshot_due():
            with self.obs.stage("snapshot"):
                self._write_snapshot()
        return result

    def _publish_batch(self, entry, batch, clients):
        """:meth:`_run_batch` from the fence to the publish; raising
        anywhere in between leaves ``entry`` as it was."""
        obs = self.obs
        # the version the batch is classified against and derived from
        previous = entry.published
        version = previous.version + 1
        if self._durability is not None and not self._replaying:
            # fence first, then append: a group-commit train may expose
            # the record to the replication feed before log_batch
            # returns, and from that instant a state capture must wait
            # for the matching publish (entry.mark_logged docs)
            entry.mark_logged(version)
            with obs.stage("log"):
                self._durability.log_batch(
                    entry.doc_id, version, clients, pul_to_xml(batch))
        submitted = len(batch)
        with obs.stage("reduce"):
            shards = shard_pul(batch, self.workers)
            reduced = merge_shards(self._reducer.reduce_shards(shards))
        try:
            # one classification against the published version serves
            # the path copy, the apply and the index delta
            with obs.stage("copy"):
                footprint = classify(previous.document, reduced)
                document, labeling = entry.checkout(footprint)
            # in-place application on the *private working pair*:
            # identifiers of removed nodes stay burned (the allocator is
            # the pair's own, position-identical to the published
            # tree's), fresh ids are assigned in document order across
            # the insertion sites — identical to the stateless
            # baseline's, per the differential suite. Readers keep
            # walking the published version untouched.
            with obs.stage("apply"):
                apply_mode = apply_batch_in_place(
                    document, labeling, reduced, footprint=footprint)
            relabel = "incremental"
            if labeling.max_code_length > previous.budget:
                with obs.stage("relabel"):
                    labeling.build(document)
                relabel = "full"
            # the secondary index rides the same publish: derived from
            # the retiring version's index by re-reading the reduced PUL
            # when the label repair stayed per-site, rebuilt from the
            # tree when codes moved wholesale (label sync or a full
            # relabel)
            index = None
            if (apply_mode == "incremental" and relabel == "incremental"
                    and previous.index is not None):
                with obs.stage("index-derive"):
                    index = previous.index.derive(
                        previous.document, document, labeling, reduced,
                        footprint=footprint)
            # one atomic reference swap makes the batch visible
            with obs.stage("publish"):
                self._give_answer_bytes(entry.publish(
                    document, labeling,
                    full_relabel=(relabel == "full"), index=index))
            return BatchResult(
                doc_id=entry.doc_id, version=version,
                clients=clients,
                submitted_ops=submitted, reduced_ops=len(reduced),
                shard_sizes=[len(s) for s in shards], relabel=relabel,
                max_code_length=labeling.max_code_length,
                index_maintenance=("incremental" if index is not None
                                   else "rebuild"))
        finally:
            # the reduced batch's trees are the batch's or copies the
            # reduction made (shards hold the batch's own operations)
            reduced.release_trees()

    # -- durability ----------------------------------------------------------

    def snapshot(self):
        """Force a snapshot compaction now (durable stores only).

        Serializes every resident document's full state, writes it
        atomically, rotates the log and deletes superseded files.
        Returns the sealed generation, or ``None`` when the store is not
        durable or another compaction is in flight.
        """
        if self._durability is None:
            return None
        self._check_writable()
        return self._write_snapshot()

    def _write_snapshot(self):
        """Compact by capturing *published versions* — no flush lock,
        no store-wide quiesce; writers keep flushing throughout.

        Rotate-then-capture ordering makes the snapshot safe without
        stopping the world: the log rotates *first* (sealing generation
        G), then every document's published version is captured. Each
        payload therefore covers every record of generations <= G —
        :meth:`StoredDocument.wait_published` waits out the window
        where a batch is logged but not yet published — and possibly a
        prefix of the new segment's records too. Leading payloads are
        harmless: recovery replays the overlap idempotently
        (version-skip for batches, skip-if-present for opens,
        tolerated-missing for closes). Lagging payloads — the failure
        mode a capture-first ordering would risk — cannot happen.

        The non-blocking ``_compacting`` guard keeps two concurrent
        triggering flushes safe: the loser skips and retries after its
        next batch.
        """
        if not self._compacting.acquire(blocking=False):
            return None
        try:
            sealed = self._durability.begin_rotation()
            return self._durability.commit_snapshot(
                sealed, self.export_state()["docs"])
        finally:
            self._compacting.release()

    # -- replication ---------------------------------------------------------

    def enable_replication(self, backlog=None):
        """Attach a :class:`~repro.cluster.feed.ReplicationSource` so
        followers can stream this store's write-ahead log (idempotent;
        returns the source). Replication *ships the WAL*, so the store
        must be durable."""
        # imported lazily: the cluster package imports the store
        from repro.cluster.feed import DEFAULT_BACKLOG, ReplicationSource

        if self._durability is None:
            raise ClusterError(
                "replication ships the write-ahead log; the store "
                "needs a durable policy (durability= and wal_dir=)")
        if self.replication is None:
            self.replication = ReplicationSource(
                self._durability,
                backlog=DEFAULT_BACKLOG if backlog is None else backlog)
        return self.replication

    def promote(self, allow_non_durable=False):
        """A store that never followed a leader has nothing to promote
        (:class:`~repro.cluster.replica.ReplicaStore` overrides)."""
        raise ClusterError(
            "this node is not a replica (nothing to promote)")

    def _recover_state(self, state):
        """Replay a :class:`~repro.store.durability.LoadedState`."""
        self._replaying = True
        outcomes = Counter()
        try:
            with self.obs.recovery_stage("restore"):
                for payload in state.documents:
                    self._install_restored(
                        restore_document(payload, self.max_code_length))
            with self.obs.recovery_stage("replay"):
                for record in state.records:
                    outcomes[self._apply_record(record)] += 1
        finally:
            self._replaying = False
        with self._lock:
            documents = sorted(
                ((entry.doc_id, entry.published.version)
                 for entry in self._entries.values()),
                key=lambda document: str(document[0]))
        self.recovery = RecoveryReport(
            documents=documents, replayed_batches=outcomes["batch"],
            skipped_records=outcomes["skipped"],
            snapshot_generation=state.snapshot_generation,
            clean=state.clean, truncated_bytes=state.truncated_bytes)
        return self.recovery

    def _apply_record(self, record):
        """Advance the resident state by one logged ``record`` — THE
        record switch, run by crash recovery (``_replaying`` set:
        nothing is logged, ``repl-pos`` cursors are restored) and by
        the replica streaming path (live: every applied record
        is write-ahead logged into this store's own WAL, when it has
        one). Store-README invariants 7-8 are structural only as long
        as every host of a log runs this one routine.

        Returns the record's kind (``"open"``/``"close"``/``"batch"``)
        when resident documents changed, ``"skipped"`` when an open or
        batch was absorbed, ``None`` for records that never change
        document bytes.

        Idempotence: leading snapshots, a crash between applying a
        record and advancing the durable cursor, and at-least-once
        subscribers all redeliver records — so re-applying one must be
        a no-op, never an error, and must not write a duplicate into
        this store's own WAL (a second ``open`` would poison its next
        recovery with "log opens twice"). Opens skip when present,
        closes tolerate a missing document, batches are version-gated.

        A batch that fails here failed on the host that logged it too
        (invariant 5): on both it changed nothing, so it is skipped.

        Locking: this is a writer like :meth:`flush` — each mutation
        runs under the entry's ``flush_lock`` (promotion can hand the
        same entry to live flushes) and reads never block on it, they
        hold published versions (invariant 9).
        """
        self._check_writable()
        kind = record.get("kind")
        if kind == "open":
            restored = restore_document(record["doc"],
                                        self.max_code_length)
            with self._lock:
                if restored.doc_id in self._entries:
                    return "skipped"
            if self._durability is not None and not self._replaying:
                self._durability.log_open(record["doc"])
            self._install_restored(restored)
            return kind
        if kind == "repl-pos":
            # a replica's replication cursor: restored from its own
            # log, meaningless when streamed (the upstream was itself
            # once a replica)
            if self._replaying:
                self._replay_position(record)
            return None
        if kind not in ("close", "batch"):
            raise RecoveryError(
                "unknown record kind {!r}".format(kind))
        with self._lock:
            entry = self._entries.get(record["doc_id"])
        if entry is None:
            if kind == "close":
                return None   # redelivered: already evicted
            raise RecoveryError(
                "log record targets {!r} which the log never "
                "opened".format(record["doc_id"]))
        if kind == "close":
            self._evict(entry)
            return kind
        with entry.flush_lock:
            version = record["version"]
            reached = entry.published.version
            if version <= reached:
                return "skipped"   # redelivery, already covered
            if version != reached + 1:
                raise RecoveryError(
                    "version gap on {!r}: the log names version {} but "
                    "the replay reached version {}".format(
                        entry.doc_id, version, reached))
            try:
                # live, _run_batch write-ahead logs into our own WAL
                self._run_batch(entry, pul_from_xml(record["pul"]),
                                record.get("clients", 0))
            except Exception:
                # breadth matching the live flush path: whatever the
                # original flush raised on this logged batch, it left
                # no trace there — and _run_batch left none here
                return "skipped"
            return kind

    def _replay_position(self, record):
        """Hook for ``repl-pos`` records during replay (no-op here;
        :class:`~repro.cluster.replica.ReplicaStore` restores its
        streaming cursor from them)."""

    def _install_restored(self, restored):
        """Make the restored version resident (recovery and replay)."""
        entry = StoredDocument(restored)
        with self._lock:
            if restored.doc_id in self._entries:
                raise RecoveryError(
                    "log opens {!r} twice without closing it".format(
                        restored.doc_id))
            self._entries[restored.doc_id] = entry
        return entry

    # -- lifecycle -----------------------------------------------------------

    def close(self):
        """Refuse every write from now on, whatever the durability
        policy (:class:`~repro.errors.StoreClosedError`), leave every
        resident tree to reference counting once an in-flight flush of
        it finished (:meth:`StoredDocument.release`; reads go on), shut
        the shared reduction pool down and seal the write-ahead log
        (idempotent)."""
        with self._lock:
            entries = [] if self._closed else list(self._entries.values())
            self._closed = True
        for entry in entries:
            with entry.flush_lock:
                entry.release()
        self._reducer.close()
        if self._durability is not None:
            self._durability.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self):
        with self._lock:
            count = len(self._entries)
        return "DocumentStore({} documents, workers={})".format(
            count, self.workers)
