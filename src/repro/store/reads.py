"""The store's read front: text, queries, export and stats of published
versions, and the store-side memo policy behind them.

:class:`StoreReads` is the base class of
:class:`~repro.store.store.DocumentStore`; it reads the store's
residency table (``_entries`` under ``_lock``, one entry looked up by
``_require``) and never writes it. Every read here holds one published
:class:`~repro.store.versions.DocumentVersion` — read once from
``entry.published``, with no lock and no count — and takes no flush
lock, so a slow read never stalls the write path and a slow batch never
stalls a reader (store README, invariant 9).

A version never changes, so what a read makes of it is made once and
left on the version while it is the published one (the memo rule of
:mod:`repro.store.versions`): its text, produced only by
:meth:`StoreReads._version_text`, and the answer of each planned,
unexplained ``query`` path, produced only by
:meth:`StoreReads._version_answer`. The versions hold the memos; this
module holds the policy:

* answers are charged to one store-wide byte budget,
  :data:`ANSWER_MEMO_BYTES`, under a leaf lock of its own. An answer
  that does not fit is served and not kept — nothing is evicted — and
  its bytes come back when ``publish`` retires the version holding it
  or when the entry leaves the store (:meth:`StoreReads._evicted`);
* a path is parsed once: :meth:`StoreReads._parsed_path` is a bounded
  LRU over the pure parser, for paths of at most
  :data:`~repro.xquery.parser.MAX_CACHED_PATH_CHARS` characters (a
  longer path is neither parsed into the memo nor answered from it);
* the text, answer and path memos and the planner's routes are counted
  (``repro_store_{text,answer,path}_cache_total``,
  ``repro_planner_route_total``), and so is the answer budget
  (``repro_store_answer_memo_bytes``).
"""

from __future__ import annotations

import functools
import threading
import time

from repro.errors import QuerySyntaxError, ReproError
from repro.obs import SIZE_BUCKETS
from repro.store.durability import document_payload
from repro.store.versions import answer_size
from repro.xdm.serializer import serialize, serialize_node
from repro.xquery.parser import (
    MAX_CACHED_PATH_CHARS,
    PATH_MEMO_ENTRIES,
    parse_path,
)

#: how long a state capture waits for a logged batch to publish before
#: declaring the writer stalled — generous, the window it bridges is a
#: single batch application
CAPTURE_TIMEOUT = 60.0

#: store-wide byte budget of the published versions' query-answer
#: memos (:mod:`repro.store.versions`), counted by ``answer_size``. A
#: Zipf read load over 160 resident documents fills it (keeping every
#: answer would take ~3 MB) for +2% of the server's resident memory
ANSWER_MEMO_BYTES = 2 * 1024 * 1024


class StoreReads:
    """The reads of a :class:`~repro.store.store.DocumentStore` and
    their memo policy, over the observability facade ``obs`` the whole
    store shares (:attr:`obs`)."""

    def __init__(self, obs):
        self.obs = obs
        self._read_latency = {
            op: obs.histogram("repro_store_op_latency_seconds",
                              "Store operation latency", op=op)
            for op in ("query", "text")}
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
        self._read_latency["text"].observe(time.perf_counter() - start)
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

    # -- queries -------------------------------------------------------------

    def query(self, doc_id, path, explain=False, engine="auto"):
        """Evaluate a read-only path expression against the resident
        document; returns the selected nodes serialized, in document
        order.

        This is the read surface replicas scale out: unlike
        ``submit_xquery`` it queues nothing and never mutates, so a
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

    def _evicted(self, entry):
        """``entry`` left ``_entries``: it keeps no answers from now on,
        and the bytes it held come back to the budget."""
        self._give_answer_bytes(entry.drop_answers())

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
        self._read_latency["query"].observe(duration)
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

    # -- export --------------------------------------------------------------

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
        if form == "state":
            docs = list(self._payloads(page, timeout))
        else:
            docs = []
            for entry in page:
                version = entry.wait_published(timeout)
                docs.append({"doc_id": entry.doc_id,
                             "text": self._version_text(entry, version),
                             "version": version.version})
        return {"docs": docs,
                "cursor": (str(page[-1].doc_id) if page else cursor),
                "done": len(page) == len(selected),
                "seq": seq, "stream": stream}

    @staticmethod
    def _payloads(entries, timeout=CAPTURE_TIMEOUT):
        """The state payloads of ``entries``, one at a time, each
        captured from the published version that covers every batch
        already logged (:meth:`StoredDocument.wait_published`): what an
        ``export`` page lists and a snapshot compaction writes as it
        draws them."""
        for entry in entries:
            yield document_payload(entry.wait_published(timeout))

    # -- observability reads -------------------------------------------------

    def uptime_seconds(self):
        """Seconds since this store was constructed."""
        return self.obs.uptime_seconds()

    def metrics_snapshot(self, traces=None, slow=None):
        """The ``metrics`` op result: every metric series plus uptime;
        optionally the last ``traces`` span trees and ``slow`` log
        entries (see :meth:`repro.obs.StoreObs.snapshot`)."""
        return self.obs.snapshot(traces=traces, slow=slow)

    def metrics_text(self):
        """Prometheus text exposition of the metrics registry."""
        return self.obs.render_text()
