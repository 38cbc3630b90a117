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
parse → reduce → apply → full-relabel baseline
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
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from itertools import chain

from repro.aggregation import aggregate
from repro.apply.inplace import (
    apply_batch_in_place,
    check_nesting,
    classify,
)
from repro.index.structural import build_index
from repro.errors import (
    ClusterError,
    DurabilityError,
    QueryEvaluationError,
    QuerySyntaxError,
    RecoveryError,
    ReproError,
    StoreClosedError,
)
from repro.integration import reconcile
from repro.labeling.scheme import ContainmentLabeling
from repro.obs import SIZE_BUCKETS, StoreObs
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
from repro.store.versions import DocumentVersion, answer_size
from repro.xdm.document import (
    Document,
    drop_copy_parents,
    drop_parents,
    restore_parents,
)
from repro.xdm.parser import parse_document
from repro.xdm.serializer import serialize, serialize_node
from repro.xquery.parser import (
    MAX_CACHED_PATH_CHARS,
    PATH_MEMO_ENTRIES,
    parse_path,
)

#: default headroom budget: containment codes may grow to this many digits
#: before the store schedules a full relabel of the document
DEFAULT_MAX_CODE_LENGTH = 64

#: how long a state capture waits for a logged batch to publish before
#: declaring the writer stalled — generous, the window it bridges is a
#: single batch application
CAPTURE_TIMEOUT = 60.0

#: store-wide byte budget of the published versions' query-answer
#: memos (:mod:`repro.store.versions`), counted by ``answer_size``. A
#: Zipf read load over 160 resident documents fills it (keeping every
#: answer would take ~3 MB) for +2% of the server's resident memory
ANSWER_MEMO_BYTES = 2 * 1024 * 1024


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


class StoredDocument:
    """One resident document: pending queue, writer state and its
    published :class:`~repro.store.versions.DocumentVersion` — the one
    holder of the document's state (see :mod:`repro.store.versions`).

    The writer side (``checkout``/``publish``/``abandon``) is
    serialized by ``flush_lock``; a reader reads :attr:`published` once
    and never touches a lock a writer holds across a batch.
    ``pending`` keeps its own small lock so submissions stay concurrent
    with both.
    """

    __slots__ = ("doc_id", "lock", "flush_lock", "pending", "published",
                 "logged_version", "_publish_cond", "_originals",
                 "_removed", "_copy_root")

    def __init__(self, version):
        """Publish ``version`` — a fresh or restored one — as the
        entry's first, building its index if it has none."""
        self.doc_id = version.doc_id
        self.lock = threading.Lock()         # guards `pending`
        self.flush_lock = threading.Lock()   # serializes batch execution
        self.pending = []   # (arrival index, client, PUL) in arrival order
        #: leaf lock of the whole store: publication swaps, the memos'
        #: installs and the logged-version fence live under it, and
        #: nothing is ever acquired while holding it
        self._publish_cond = threading.Condition()
        #: of the in-flight batch (``checkout``), until it publishes or
        #: is abandoned: the nodes of the published tree its path copy
        #: copied, the published nodes it removes, and the root of its
        #: path copy
        self._originals = self._removed = self._copy_root = None
        #: highest batch version write-ahead logged so far; a state
        #: capture must wait until the published version covers it, or
        #: the captured payload would *lag* the log/stream position it
        #: is paired with (leading is safe — replay is idempotent —
        #: lagging loses acknowledged records)
        self.logged_version = version.version
        if version.index is None:
            version.index = build_index(version.document, version.labeling)
        self.published = version

    # -- the reader side -----------------------------------------------------

    def keep_text(self, version, text):
        """Memoize ``text`` as the serialization of ``version`` — only
        while it is still the published one: a version that retired
        while the reader serialized it stays without (see
        :mod:`repro.store.versions`)."""
        with self._publish_cond:
            if version is self.published:
                version.text = text

    def keep_answer(self, version, path, nodes, size):
        """Memoize ``nodes`` as the answer of ``path`` on ``version`` —
        under :meth:`keep_text`'s rule, and only while the entry is
        resident and no other reader kept one first. ``size`` is what
        the caller charged to the store's budget; returns whether the
        answer was kept (if not, the caller hands ``size`` back)."""
        with self._publish_cond:
            answers = version.answers
            if (version is self.published and answers is not None
                    and path not in answers):
                answers[path] = nodes
                version.answer_bytes += size
                return True
            return False

    def drop_answers(self):
        """The entry left the store: its published version keeps no
        answers from now on. Returns the bytes they held."""
        with self._publish_cond:
            return self.published.forget_answers()

    def release(self):
        """No batch will be applied to this entry again (it left the
        store, or the store closed): its published tree drops its
        parent pointers, so it is freed by reference counting with the
        last reference to it. Reads go on as before — no reader follows
        ``.parent`` (the parent-pointer rule of
        :mod:`repro.store.versions`). Callers hold ``flush_lock`` or
        have waited out the last flush."""
        drop_parents(self.published.document.nodes())

    def wait_published(self, timeout):
        """The published version, once it covers every logged batch.

        The capture-side half of the logged-version fence: a batch
        record enters the WAL (and the replication stream) *before* its
        version is published, so a capture pairing payloads with a
        log/stream position must wait out that window — the returned
        version may lead the position (idempotent replay absorbs the
        overlap) but never lag it.
        """
        deadline = time.monotonic() + timeout
        with self._publish_cond:
            while self.published.version < self.logged_version:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise DurabilityError(
                        "document {!r} logged version {} but never "
                        "published it (writer stalled?)".format(
                            self.doc_id, self.logged_version))
                self._publish_cond.wait(remaining)
            return self.published

    # -- the writer side (callers hold flush_lock) ---------------------------

    def mark_logged(self, version):
        """Raise the logged-version fence *before* the WAL append — a
        group-commit train can expose the record to the replication
        feed before ``log_batch`` returns, and from that instant a
        capture must know a publish is owed."""
        with self._publish_cond:
            self.logged_version = version

    def checkout(self, footprint):
        """The writer's private ``(document, labeling)`` working pair
        for a batch with ``footprint`` (classified against the
        published version): the published tree path-copied above the
        footprint's sites and touched nodes, and a copy of its label
        map. The published version stays as it was; :meth:`publish`
        the pair or :meth:`abandon` it."""
        published = self.published
        document, self._originals = published.document.path_copy(
            chain(footprint.site_ids, footprint.touched_ids))
        find = published.document.find
        self._removed = [find(node_id) for node_id in footprint.removed_ids]
        self._copy_root = document.root
        return document, published.labeling.copy()

    def publish(self, document, labeling, full_relabel=False, index=None):
        """Atomically publish the working pair as the next version,
        whose counters are the retiring version's advanced by one
        batch. ``index`` is the version's secondary index — derived
        incrementally from the retiring version's by the caller, or
        rebuilt here when the delta could not be localized. Returns
        the answer-memo bytes the retiring version gave up, for the
        caller to hand back to the budget."""
        if index is None:
            index = build_index(document, labeling)
        full = 1 if full_relabel else 0
        previous = self.published
        version = DocumentVersion(
            self.doc_id, previous.version + 1, document, labeling,
            previous.batches + 1, previous.incremental_relabels + 1 - full,
            previous.full_relabels + full, index=index)
        originals, removed = self._originals, self._removed
        self._originals = self._removed = self._copy_root = None
        document.commit()
        with self._publish_cond:
            # the retiring version keeps no memo (the memo rule of
            # repro.store.versions)
            previous.text = None
            freed = previous.forget_answers()
            self.published = version
            self._publish_cond.notify_all()
        # the retired tree's copied nodes and the subtrees the batch
        # removed drop their parent pointers, which mean nothing on a
        # retired version (the parent-pointer rule of
        # repro.store.versions): no reference cycle then runs through
        # them, and they are freed with the version by reference
        # counting rather than left to the cyclic collector
        drop_parents(chain(originals, removed))
        return freed

    def abandon(self):
        """A batch failed: its working pair is dropped by the caller —
        no reader, log or follower ever saw it — the published tree's
        parent pointers are restored where the path copy moved them,
        and the logged-version fence is clamped back so captures
        waiting on a publish that will never come are released. The
        nodes only the dropped copy held — its copies and whatever the
        batch inserted into them — drop their parent pointers, so they
        die by reference counting with it."""
        originals, root = self._originals, self._copy_root
        self._originals = self._removed = self._copy_root = None
        if originals:
            restore_parents(originals)
            # (with nothing copied, the copy's root is the published one)
            drop_copy_parents(root)
        with self._publish_cond:
            self.logged_version = self.published.version
            self._publish_cond.notify_all()

    def stats(self):
        version = self.published
        with self._publish_cond:
            logged = self.logged_version
        return {
            "doc_id": self.doc_id,
            "version": version.version,
            "nodes": len(version.document),
            "pending": len(self.pending),
            # batches already write-ahead logged whose publish is still
            # owed (nonzero only inside the log->publish window of an
            # in-flight flush)
            "pending_batches": max(0, logged - version.version),
            "batches": version.batches,
            "incremental_relabels": version.incremental_relabels,
            "full_relabels": version.full_relabels,
            "max_code_length": version.labeling.max_code_length,
            "answer_memo_bytes": version.answer_bytes,
        }


class DocumentStore:
    """Resident multi-document server over the sharded pipeline.

    Parameters
    ----------
    workers / backend:
        Concurrency of the per-batch shard reduction: ``backend`` is
        ``"thread"`` (a single warm :class:`ParallelReducer` pool shared
        by all documents) or ``"serial"``.
    max_code_length:
        Headroom budget: when the labeling's longest containment code
        exceeds this many digits after a batch, the document is fully
        relabeled (codes rebalanced); below it, labels are maintained
        incrementally.
    on_conflict:
        ``"error"`` (reject the whole batch, pending queue preserved) or
        ``"reconcile"`` (resolve cross-client conflicts under
        ``policies`` through the integration layer).
    policies:
        ``client name -> ProducerPolicy`` used by ``"reconcile"``.
    durability / wal_dir:
        A :class:`DurabilityPolicy` (or its CLI spec string) and the
        directory holding the write-ahead log and snapshots. With a
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
        self.obs = StoreObs(enabled=metrics, slow_query_s=slow_query_s,
                            slow_flush_s=slow_flush_s,
                            slow_log_path=slow_log_path)
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
            for op in ("submit", "flush", "query", "text", "open")}
        self._route_counters = {
            mode: obs.counter("repro_planner_route_total",
                              "Query routes chosen by the planner",
                              mode=mode)
            for mode in ("indexed", "mixed", "walker")}
        self._m_bucket_rows = obs.histogram(
            "repro_planner_bucket_rows",
            "Index bucket sizes scanned by index-scan steps",
            buckets=SIZE_BUCKETS)
        #: parsed paths by their text, behind :meth:`_parsed_path`
        self._paths = functools.lru_cache(PATH_MEMO_ENTRIES)(parse_path)
        self._path_cache = {
            result: obs.counter("repro_store_path_cache_total",
                                "Parsed-path memo lookups of query",
                                result=result)
            for result in ("hit", "miss", "uncached")}
        self._text_cache = {
            result: obs.counter("repro_store_text_cache_total",
                                "Version-text memo lookups of text "
                                "and export",
                                result=result)
            for result in ("hit", "miss")}
        self._answer_cache = {
            result: obs.counter("repro_store_answer_cache_total",
                                "Query-answer memo lookups of query",
                                result=result)
            for result in ("hit", "miss", "unkept")}
        self._m_answer_bytes = obs.gauge(
            "repro_store_answer_memo_bytes",
            "Bytes the query-answer memos of published versions hold")
        #: bytes charged to ANSWER_MEMO_BYTES; a leaf lock of its own,
        #: since the entries' publish locks do not serialize it
        self._answer_bytes = 0
        self._answer_lock = threading.Lock()
        if isinstance(durability, str):
            durability = DurabilityPolicy.parse(durability)
        if durability is None:
            durability = (DurabilityPolicy("log") if wal_dir is not None
                          else DurabilityPolicy("off"))
        self.durability_policy = durability
        self._durability = None
        if durability.durable:
            if wal_dir is None:
                raise ReproError(
                    "durability policy {!r} needs a wal_dir".format(
                        durability))
            self._durability = DurabilityManager(wal_dir, durability,
                                                 group_window=group_window,
                                                 obs=self.obs)
        self._reducer = ParallelReducer(workers=workers, backend=backend)
        if self._durability is not None:
            try:
                self._restart()
            except Exception:
                self._reducer.close()
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
        under ``doc_id``; parses and labels it once."""
        start = time.perf_counter()
        if not isinstance(source, Document):
            source = parse_document(source)
        labeling = ContainmentLabeling().build(source)
        entry = StoredDocument(DocumentVersion(doc_id, 0, source, labeling))
        self._make_resident([entry])
        self._op_latency["open"].observe(time.perf_counter() - start)
        return entry

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
        prepared = []
        chunk_ids = set()
        nodes = 0
        for doc in docs:
            if isinstance(doc, dict):
                doc_id, source = doc.get("doc_id"), doc.get("xml")
            else:
                doc_id, source = doc
            if doc_id is None or source is None:
                raise ReproError(
                    "bulk-load documents need doc_id and xml")
            if doc_id in chunk_ids:
                raise ReproError(
                    "bulk-load chunk names {!r} twice".format(doc_id))
            chunk_ids.add(doc_id)
            if not isinstance(source, Document):
                source = parse_document(source)
            labeling = ContainmentLabeling().build(source)
            prepared.append(StoredDocument(
                DocumentVersion(doc_id, 0, source, labeling)))
            nodes += len(source)
        self._make_resident(prepared)
        return {"loaded": len(prepared), "nodes": nodes,
                "doc_ids": [entry.doc_id for entry in prepared]}

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
            self._check_open()
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
        with self._lock:
            entry = self._require(doc_id)
        # wait out any in-flight flush first: its batch record must
        # precede the close record in the log, or replay finds a batch
        # for a document the log already closed
        with entry.flush_lock:
            with self._lock:
                self._check_open()
                if self._entries.get(entry.doc_id) is not entry:
                    raise ReproError(
                        "document {!r} was closed concurrently".format(
                            entry.doc_id))
                # logged first: a close the log refused evicts nothing
                if self._durability is not None:
                    self._durability.log_close(entry.doc_id)
                del self._entries[entry.doc_id]
        self._evicted(entry)
        with entry.lock:
            self._m_pending.dec(len(entry.pending))

    def _evicted(self, entry):
        """``entry`` left ``_entries``: it keeps no answers from now on,
        the bytes it held come back to the budget, and its tree is left
        to reference counting (:meth:`StoredDocument.release`)."""
        self._give_answer_bytes(entry.drop_answers())
        entry.release()

    def doc_ids(self):
        """The resident ids in ``str(doc_id)`` order — the order of
        ``export_state`` — so ids of mixed types still sort."""
        with self._lock:
            return sorted(self._entries, key=str)

    def __contains__(self, doc_id):
        with self._lock:
            return doc_id in self._entries

    def _check_open(self):
        """Refuse a write on a closed store — the same refusal under
        every durability policy (:meth:`close`)."""
        if self._closed:
            raise StoreClosedError(
                "the store is closed: it accepts no writes")

    def _require(self, doc_id):
        entry = self._entries.get(doc_id)
        if entry is None:
            raise ReproError(
                "no resident document {!r} (open it first)".format(doc_id))
        return entry

    def document(self, doc_id):
        return self._require(doc_id).published.document

    def labeling(self, doc_id):
        return self._require(doc_id).published.labeling

    def version(self, doc_id):
        return self._require(doc_id).published.version

    def text(self, doc_id):
        """Serialized text of the latest published version."""
        return self.text_version(doc_id)[0]

    def text_version(self, doc_id):
        """``(serialized text, version)`` of one published version — a
        consistent pair even while a flush applies: the reader holds
        the published version and serializes it with no flush lock, so
        a slow serialization never stalls the write path and a slow
        batch never stalls the reader. A version is immutable, so it is
        serialized once (:meth:`_version_text`)."""
        start = time.perf_counter()
        entry = self._require(doc_id)
        version = entry.published
        text = self._version_text(entry, version)
        self._op_latency["text"].observe(time.perf_counter() - start)
        return text, version.version

    def _version_text(self, entry, version):
        """Serialized text of the held ``version`` of ``entry`` —
        the one place a version's text is produced: read from the
        version's memo, or serialized and offered to it."""
        text = version.text
        if text is not None:
            self._text_cache["hit"].inc()
            return text
        self._text_cache["miss"].inc()
        text = serialize(version.document)
        entry.keep_text(version, text)
        return text

    def stats(self, doc_id=None):
        if doc_id is not None:
            return self._require(doc_id).stats()
        with self._lock:
            entries = list(self._entries.values())
        return [entry.stats() for entry in entries]

    def uptime_seconds(self):
        """Seconds since this store was constructed."""
        return self.obs.uptime_seconds()

    # -- observability reads -------------------------------------------------

    def metrics_snapshot(self, traces=None, slow=None):
        """The ``metrics`` op result: every metric series plus uptime;
        optionally the last ``traces`` span trees and ``slow`` log
        entries (see :meth:`repro.obs.StoreObs.snapshot`)."""
        return self.obs.snapshot(traces=traces, slow=slow)

    def metrics_text(self):
        """Prometheus text exposition of the metrics registry."""
        return self.obs.render_text()

    # -- submission ----------------------------------------------------------

    def submit(self, doc_id, pul, client=None):
        """Queue ``pul`` against ``doc_id``; returns the queue depth.

        Thread-safe: concurrent clients may submit against the same
        document. ``client`` defaults to the PUL's origin; submissions
        sharing a client name are treated as that client's sequential
        chain when the batch is coalesced.
        """
        start = time.perf_counter()
        self._check_open()
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
        self._check_open()
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

    def query(self, doc_id, path, explain=False, engine="auto"):
        """Evaluate a read-only path expression against the resident
        document; returns the selected nodes serialized, in document
        order.

        This is the read surface replicas scale out: unlike
        :meth:`submit_xquery` it queues nothing and never mutates, so a
        read-only node serves it freely. Evaluation holds one published
        version — tree, labeling *and* secondary index travel together
        — and runs the planner (:mod:`repro.index.planner`) over it
        with no locks: a slow path expression never stalls the
        document's write path, and the reported ``version`` is exactly
        the version the paths ran against (never a concurrent flush's
        half-applied successor). ``engine`` forces ``"walk"`` or
        ``"index"`` execution (the differential harness's lever);
        every engine returns identical bytes. With ``explain=True``
        the response carries the recorded per-step plan.

        A version never changes, so a planned (``engine="auto"``),
        unexplained query is answered once per version and path
        (:meth:`_version_answer`); ``explain`` and a forced engine
        always evaluate.
        """
        start = time.perf_counter()
        entry = self._require(doc_id)
        version = entry.published
        with self.obs.span("query"):
            if explain or engine != "auto":
                nodes, plan = self._evaluate(version, path, engine)
            else:
                nodes, plan = self._version_answer(entry, version, path)
        self._observe_query(doc_id, path,
                            time.perf_counter() - start, plan)
        result = {"doc_id": doc_id, "version": version.version,
                  "count": len(nodes), "nodes": list(nodes)}
        if explain:
            result["plan"] = plan
        return result

    def _evaluate(self, version, path, engine):
        """Run ``path`` on the held ``version``: ``(tuple of
        serialized nodes in document order, recorded plan)``."""
        # local import: the read path should not drag the query stack
        # into store-only deployments
        from repro.index.planner import run_query

        nodes, plan = run_query(
            self._parsed_path(path), version.document,
            labeling=version.labeling, index=version.index, engine=engine)
        return tuple(serialize_node(node) for node in nodes), plan

    def _version_answer(self, entry, version, path):
        """``(nodes, plan)`` of ``path`` on the held ``version`` of
        ``entry`` — the one place a query answer is memoized: read from
        the version's memo (``plan`` is then ``None``: nothing was
        planned), or evaluated and offered to it. A path too long for
        the path memo is never kept, and neither is an answer the byte
        budget has no room for."""
        keepable = (isinstance(path, str)
                    and len(path) <= MAX_CACHED_PATH_CHARS)
        answers = version.answers if keepable else None
        if answers:
            nodes = answers.get(path)
            if nodes is not None:
                self._answer_cache["hit"].inc()
                return nodes, None
        nodes, plan = self._evaluate(version, path, "auto")
        kept = False
        if keepable:
            size = answer_size(path, nodes)
            if self._take_answer_bytes(size):
                kept = entry.keep_answer(version, path, nodes, size)
                if not kept:
                    self._give_answer_bytes(size)
        self._answer_cache["miss" if kept else "unkept"].inc()
        return nodes, plan

    def _take_answer_bytes(self, size):
        """Charge ``size`` to the answer budget, if it has room."""
        with self._answer_lock:
            if self._answer_bytes + size > ANSWER_MEMO_BYTES:
                return False
            self._answer_bytes += size
            self._m_answer_bytes.set(self._answer_bytes)
            return True

    def _give_answer_bytes(self, size):
        if size:
            with self._answer_lock:
                self._answer_bytes -= size
                self._m_answer_bytes.set(self._answer_bytes)

    def _parsed_path(self, path):
        """``path`` parsed — the one place this store obtains a parsed
        path. Clients send the same few strings again and again, and
        planner and engines only read the tree they are handed, so
        every evaluation of one string shares one tree: a bounded LRU
        over the pure parser. A string too long to keep (the memo is
        bounded in bytes, not only in entries) is parsed every time;
        a syntax error is raised every time, never kept."""
        if not isinstance(path, str):
            raise QuerySyntaxError("a path is text, not {}".format(
                type(path).__name__))
        if len(path) > MAX_CACHED_PATH_CHARS:
            self._path_cache["uncached"].inc()
            return parse_path(path)
        # a concurrent reader's miss between the two looks can make a
        # hit count as a miss: the counters are telemetry
        misses = self._paths.cache_info().misses
        parsed = self._paths(path)
        self._path_cache[
            "hit" if self._paths.cache_info().misses == misses
            else "miss"].inc()
        return parsed

    def _observe_query(self, doc_id, path, duration, plan):
        """Feed the read-path telemetry from one executed query: the
        op latency, the route counter for the plan's overall mode, the
        scanned-bucket-size histogram for every index-scan step, and —
        past the threshold — the slow-query log (plan embedded). An
        answer read from the memo has ``plan`` ``None``: nothing was
        planned, so the two planner metrics do not move."""
        self._op_latency["query"].observe(duration)
        mode = plan.get("mode") if isinstance(plan, dict) else None
        counter = self._route_counters.get(mode)
        if counter is not None:
            counter.inc()
        if isinstance(plan, dict):
            for step in plan.get("steps") or ():
                if (isinstance(step, dict)
                        and step.get("choice") == "index-scan"
                        and isinstance(step.get("bucket"), (int, float))):
                    self._m_bucket_rows.observe(step["bucket"])
        self.obs.slowlog.note_query(
            doc_id, path, duration, plan,
            trace_id=self.obs.tracer.current_trace_id())

    def explain(self, doc_id, path):
        """Run ``path`` like :meth:`query` and return the plan the
        cost model chose — per step: index-scan vs. walk, the bucket
        and estimate sizes — without the serialized nodes. The query
        *is* executed (plans depend on per-step context sizes), so
        ``count`` and ``version`` match what :meth:`query` would have
        returned for the same published version."""
        result = self.query(doc_id, path, explain=True)
        return {"doc_id": result["doc_id"],
                "version": result["version"], "path": path,
                "count": result["count"], "plan": result["plan"]}

    # -- batch execution -----------------------------------------------------

    def flush(self, doc_id, num_shards=None):
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
        entry = self._require(doc_id)
        with entry.flush_lock:
            with self._lock:
                # under the flush lock: close() releases the tree
                # under it, after which no batch may be applied
                self._check_open()
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
                    result = self._execute_batch(entry, pending,
                                                 num_shards)
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

    def flush_all(self, num_shards=None):
        """Flush every resident document; returns its batch results.

        One document's failing batch must not starve the others: every
        document is attempted, each failing one keeps its pending queue
        (per :meth:`flush`), and a single :class:`ReproError` naming all
        failures is raised afterwards.
        """
        self._check_open()
        results = []
        errors = []
        for doc_id in self.doc_ids():
            try:
                result = self.flush(doc_id, num_shards=num_shards)
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

    def _execute_batch(self, entry, pending, num_shards):
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
        return self._run_batch(entry, batch, num_shards, clients)

    def _run_batch(self, entry, batch, num_shards, clients):
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
            result = self._publish_batch(entry, batch, num_shards,
                                         clients)
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

    def _publish_batch(self, entry, batch, num_shards, clients):
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
            shards = shard_pul(batch, num_shards or self.workers)
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
            if labeling.max_code_length > self.max_code_length:
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
        self._check_open()
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

    def export_state(self, doc_ids=None, cursor=None, limit=None,
                     form="state", timeout=CAPTURE_TIMEOUT):
        """One page of a filtered, resumable corpus export.

        Documents are walked in stable ``str(doc_id)`` order; ``cursor``
        (the last key of the previous page) resumes after it, ``limit``
        bounds the page, ``doc_ids`` restricts the walk. Each document
        is read from its *published version* — the MVCC read path — so
        a concurrent flush never tears a page.

        ``form`` selects the payload shape: ``"state"`` returns
        snapshot-form payloads (node identifiers and labels preserved —
        what a replica bootstrap, a re-import and snapshot
        compaction need to stay batch-addressable — made from the
        :class:`~repro.store.versions.DocumentVersion` itself),
        ``"xml"`` returns serialized text.

        Stream pairing: when replication is enabled, ``(stream, seq)``
        are read **before** any payload is captured, and each payload
        waits until its document's published version covers every batch
        already logged (:meth:`StoredDocument.wait_published`). The
        payloads therefore describe a state at or *past* ``seq``, never
        behind it: a follower that installs them and streams records
        from ``seq`` misses nothing (the fatal direction), and
        re-receives at most records the payloads already reflect —
        which the apply path absorbs idempotently (batch version-skip,
        open skip-if-present, tolerated-missing close).
        A multi-page bootstrap anchors at the *first* page's position:
        later pages only lead it further.

        Returns ``{"docs", "cursor", "done", "seq", "stream"}``.
        """
        if form not in ("state", "xml"):
            raise ReproError(
                "export form must be 'state' or 'xml', got {!r}".format(
                    form))
        seq = stream = None
        if self.replication is not None:
            seq = self.replication.next_seq
            stream = self.replication.stream_id
        wanted = (None if doc_ids is None
                  else {str(doc_id) for doc_id in doc_ids})
        with self._lock:
            entries = sorted(self._entries.values(),
                             key=lambda entry: str(entry.doc_id))
        selected = [
            entry for entry in entries
            if (wanted is None or str(entry.doc_id) in wanted)
            and (cursor is None or str(entry.doc_id) > str(cursor))]
        page = selected if limit is None else selected[:max(1, int(limit))]
        docs = []
        for entry in page:
            version = entry.wait_published(timeout)
            if form == "state":
                docs.append(document_payload(version))
            else:
                docs.append({"doc_id": entry.doc_id,
                             "text": self._version_text(entry, version),
                             "version": version.version})
        return {"docs": docs,
                "cursor": (str(page[-1].doc_id) if page else cursor),
                "done": len(page) == len(selected),
                "seq": seq, "stream": stream}

    def _recover_state(self, state):
        """Replay a :class:`~repro.store.durability.LoadedState`."""
        self._replaying = True
        outcomes = Counter()
        try:
            with self.obs.recovery_stage("restore"):
                for payload in state.documents:
                    self._install_restored(restore_document(payload))
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
        self._check_open()
        kind = record.get("kind")
        durability = None if self._replaying else self._durability
        if kind == "open":
            restored = restore_document(record["doc"])
            with self._lock:
                if restored.doc_id in self._entries:
                    return "skipped"
            if durability is not None:
                durability.log_open(record["doc"])
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
        with entry.flush_lock:
            if kind == "close":
                # same order as close_document: an in-flight apply of
                # this entry is waited out before the eviction
                if durability is not None:
                    durability.log_close(entry.doc_id)
                with self._lock:
                    self._entries.pop(entry.doc_id, None)
                self._evicted(entry)
                return kind
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
                                num_shards=None,
                                clients=record.get("clients", 0))
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
