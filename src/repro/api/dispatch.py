"""The command core over one :class:`DocumentStore`.

The asyncio network server (:mod:`repro.api.server`) — the store's one
front door — and the CLI commands that work on a local durability
directory route their commands through a :class:`StoreDispatcher`:
structured arguments in, JSON-representable dicts out,
:class:`~repro.errors.ReproError` subclasses raised on failure (each
carrying its stable ``code``). The server only (de)serializes; the
command semantics, argument validation and result shapes live here.
"""

from __future__ import annotations

from repro.errors import (
    ClusterError,
    DurabilityError,
    NotLeaderError,
    ProtocolError,
)
from repro.pul.serialize import pul_from_xml


class StoreDispatcher:
    """Structured command surface over ``store``."""

    def __init__(self, store):
        self.store = store

    # -- documents -----------------------------------------------------------

    def open(self, doc_id, xml):
        """Make ``xml`` (document text) resident under ``doc_id``."""
        entry = self.store.open(doc_id, xml)
        return {"doc_id": doc_id, "nodes": len(entry.document),
                "version": entry.version}

    def docs(self):
        return {"docs": self.store.doc_ids()}

    def stats(self, doc_id=None):
        """Per-document counters, the store's uptime at the top level
        next to them, and the ``replication`` block on a cluster
        node."""
        stats = (self.store.stats() if doc_id is None
                 else [self.store.stats(doc_id)])
        payload = {
            "stats": [dict(entry) for entry in stats],
            "uptime_seconds": round(self.store.uptime_seconds(), 3)}
        replication = self._replication_block()
        if replication is not None:
            payload["replication"] = replication
        return payload

    def metrics(self, format=None, traces=None, slow=None):
        """The observability surface: the store's metric snapshot
        (plus uptime), optionally the last ``traces`` recorded span
        trees and ``slow`` slow-log entries, or — with
        ``format="prometheus"`` — ``{"text": ...}`` carrying the text
        exposition."""
        if format not in (None, "json", "prometheus"):
            raise ProtocolError(
                "metrics format must be \"json\" or \"prometheus\", "
                "got {!r}".format(format))
        if format == "prometheus":
            return {"text": self.store.metrics_text()}
        return {
            **self.store.metrics_snapshot(
                traces=self._bounded_count("traces", traces),
                slow=self._bounded_count("slow", slow))}

    @staticmethod
    def _bounded_count(name, value):
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int) \
                or value < 0:
            raise ProtocolError(
                "metrics \"{}\" must be a non-negative integer, got "
                "{!r}".format(name, value))
        return value

    def text(self, doc_id):
        text, version = self.store.text_version(doc_id)
        return {"doc_id": doc_id, "text": text, "version": version}

    def query(self, doc_id, path):
        """Evaluate a read-only path expression against the resident
        document (replica-safe: queues nothing, mutates nothing)."""
        if not isinstance(path, str):
            raise ProtocolError(
                "query needs the path expression as text, got "
                "{}".format(type(path).__name__))
        return self.store.query(doc_id, path)

    def explain(self, doc_id, path):
        """Run ``path`` and return the plan the cost model chose —
        per step: index-scan vs. walk, bucket and estimate sizes —
        without the serialized nodes (replica-safe like ``query``)."""
        if not isinstance(path, str):
            raise ProtocolError(
                "explain needs the path expression as text, got "
                "{}".format(type(path).__name__))
        return self.store.explain(doc_id, path)

    # -- submission ----------------------------------------------------------

    def submit(self, doc_id, pul, client=None):
        """Queue a PUL (exchange-format XML text) against ``doc_id``."""
        if not isinstance(pul, str):
            raise ProtocolError(
                "submit needs the PUL exchange document as text, got "
                "{}".format(type(pul).__name__))
        parsed = pul_from_xml(pul)
        depth = self.store.submit(doc_id, parsed, client=client)
        return {"doc_id": doc_id, "ops": len(parsed), "depth": depth}

    def submit_xquery(self, doc_id, query, client=None):
        """Compile an XQuery Update expression server-side and queue
        the resulting PUL (the client never builds a PUL itself)."""
        if not isinstance(query, str):
            raise ProtocolError(
                "submit_xquery needs the expression as text, got "
                "{}".format(type(query).__name__))
        depth, ops = self.store.submit_xquery(doc_id, query,
                                              client=client)
        return {"doc_id": doc_id, "ops": ops, "depth": depth}

    def discard(self, doc_id):
        return {"doc_id": doc_id,
                "discarded": self.store.discard_pending(doc_id)}

    # -- batch execution -----------------------------------------------------

    def flush(self, doc_id):
        result = self.store.flush(doc_id)
        if result is None:
            return {"doc_id": doc_id, "flushed": False}
        return {"doc_id": doc_id, "flushed": True,
                **self._batch_result(result)}

    def flush_all(self):
        results = self.store.flush_all()
        return {"batches": len(results),
                "ops": sum(r.reduced_ops for r in results),
                "results": [self._batch_result(r) for r in results]}

    @staticmethod
    def _batch_result(result):
        return {"version": result.version, "clients": result.clients,
                "submitted_ops": result.submitted_ops,
                "reduced_ops": result.reduced_ops,
                "relabel": result.relabel,
                "max_code_length": result.max_code_length}

    # -- replication (see repro.cluster) --------------------------------------

    def _replication_block(self):
        """The ``replication`` section of extended ``stats``: role,
        stream position, per-subscriber lag on a leader; cursor, leader
        address and sync health on a replica. ``None`` on a plain
        single-node store, so the pre-cluster result shape is
        unchanged."""
        store = self.store
        if store.role == "replica":
            block = {"role": "replica",
                     "leader": store.leader_address,
                     "applied_seq": store.applied_seq,
                     "stream": store.stream_id}
            if store._sync is not None:
                block.update(store._sync.status())
            return block
        if store.replication is not None:
            block = {"role": "leader"}
            block.update(store.replication.stats())
            return block
        return None

    def _source(self):
        source = self.store.replication
        if source is None:
            if self.store.role == "replica":
                raise NotLeaderError(self.store.leader_address,
                                     operation="the replication stream")
            raise ClusterError(
                "replication is not enabled on this node (serve it "
                "with `repro store serve --replicate`)")
        return source

    # -- CDC & bulk ETL (see repro.cdc / repro.etl) ---------------------------

    def subscribe(self, from_token=None, doc_ids=None, decode=None,
                  max_events=None, wait_s=None, subscriber=None):
        """One subscription poll against the change feed: events at or
        after ``from_token`` (the live tail when omitted), filtered to
        ``doc_ids``, decoded (PUL op summaries) unless ``decode`` is
        false. Stateless server-side — the resume token in the result
        is the whole subscription state."""
        # imported lazily: repro.cdc imports the store package
        from repro.cdc.feed import ChangeFeed

        if from_token is not None and not isinstance(from_token, str):
            raise ProtocolError("subscribe \"from_token\" must be a "
                                "string")
        if doc_ids is not None and not isinstance(doc_ids,
                                                  (list, tuple)):
            raise ProtocolError("subscribe \"doc_ids\" must be a list")
        if subscriber is not None and not isinstance(subscriber, str):
            raise ProtocolError("subscribe \"subscriber\" must be a "
                                "string")
        feed = ChangeFeed(self._source())
        return feed.read(
            from_token=from_token, doc_ids=doc_ids,
            decode=True if decode is None else bool(decode),
            max_events=max_events,
            wait_s=0.0 if wait_s is None else wait_s,
            subscriber=subscriber)

    def unsubscribe(self, subscriber):
        """Drop a named subscriber from the feed's lag accounting."""
        if not isinstance(subscriber, str):
            raise ProtocolError("unsubscribe \"subscriber\" must be a "
                                "string")
        return {"subscriber": subscriber,
                "forgotten": self._source().forget_subscriber(
                    subscriber)}

    def bulk_import(self, docs):
        """Load one ETL chunk (``[{"doc_id", "xml"}]``) atomically
        under a single group fsync."""
        if not isinstance(docs, (list, tuple)):
            raise ProtocolError(
                "bulk-import needs \"docs\" as a list of "
                "{doc_id, xml} objects")
        for doc in docs:
            if not isinstance(doc, dict):
                raise ProtocolError(
                    "bulk-import documents must be objects, got "
                    "{}".format(type(doc).__name__))
        return self.store.bulk_load(docs)

    def export(self, doc_ids=None, cursor=None, max_docs=None,
               format=None):
        """One page of a filtered, resumable corpus export, read from
        pinned MVCC versions; carries the CDC resume token matching
        the exported state when replication is enabled."""
        from repro.cdc.tokens import encode_token

        if doc_ids is not None and not isinstance(doc_ids,
                                                  (list, tuple)):
            raise ProtocolError("export \"doc_ids\" must be a list")
        result = self.store.export_state(
            doc_ids=doc_ids, cursor=cursor, limit=max_docs,
            form="xml" if format is None else format)
        result["token"] = (
            None if result["stream"] is None
            else encode_token(result["stream"], result["seq"]))
        return result

    def promote(self, allow_non_durable=None):
        """Convert a replica into a leader (manual failover)."""
        return self.store.promote(
            allow_non_durable=bool(allow_non_durable))

    # -- durability ----------------------------------------------------------

    def snapshot(self):
        if not self.store.durability_policy.durable:
            raise DurabilityError(
                "store is not durable (no snapshot written)")
        generation = self.store.snapshot()
        if generation is None:
            # the non-blocking race against an in-flight compaction —
            # a transient condition, not a configuration problem
            raise DurabilityError(
                "snapshot skipped: another compaction is in flight "
                "(retry)")
        return {"generation": generation}
