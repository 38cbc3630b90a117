"""The stateless per-batch baseline: full relabel → reduce → apply.

:class:`StatelessBaseline` exposes the same ``open`` / ``submit`` /
``flush`` / ``text`` surface as :class:`~repro.store.store.DocumentStore`
but processes every batch the way a stateless service would: the whole
document is (re)labeled from scratch, the batch is reduced with
``reduce_deterministic`` as the store reduces it, and the PUL is made
effective with the in-memory evaluator. It is the **differential
oracle**: the store's resident-incremental output must be
byte-identical to this path on every batch (the property the fuzz
suite checks).

The baseline keeps its document resident for *semantics* only — a
genuinely stateless service would re-parse the text per batch, but our
parser derives identifiers from document order instead of reading them
back (Section 6 stores them inline), so a re-parse would renumber nodes
and break the id-addressed workload.
"""

from __future__ import annotations

from repro.errors import ReproError
from repro.labeling.scheme import ContainmentLabeling
from repro.pul.semantics import apply_pul
from repro.reduction import reduce_deterministic
from repro.store.store import coalesce_batch
from repro.xdm.document import Document
from repro.xdm.parser import parse_document
from repro.xdm.serializer import serialize


class _BaselineEntry:
    __slots__ = ("doc_id", "document", "labeling", "version", "pending")

    def __init__(self, doc_id, document, labeling):
        self.doc_id = doc_id
        self.document = document
        self.labeling = labeling
        self.version = 0
        self.pending = []


class StatelessBaseline:
    """Full relabel → sequential reduce → apply, per batch."""

    def __init__(self, on_conflict="error", policies=None):
        self.on_conflict = on_conflict
        self.policies = dict(policies) if policies else {}
        self._entries = {}
        self._arrivals = 0

    def open(self, doc_id, source):
        if not isinstance(source, Document):
            source = parse_document(source)
        if doc_id in self._entries:
            raise ReproError(
                "document {!r} is already resident".format(doc_id))
        entry = _BaselineEntry(doc_id, source,
                               ContainmentLabeling().build(source))
        self._entries[doc_id] = entry
        return entry

    def _require(self, doc_id):
        entry = self._entries.get(doc_id)
        if entry is None:
            raise ReproError(
                "no document {!r} (open it first)".format(doc_id))
        return entry

    def submit(self, doc_id, pul, client=None):
        entry = self._require(doc_id)
        if client is None:
            client = pul.origin
        entry.pending.append((self._arrivals, client, pul))
        self._arrivals += 1
        return len(entry.pending)

    def flush(self, doc_id):
        """Process everything pending as one stateless batch; returns the
        number of applied operations, or ``None`` if nothing was pending.

        Mirrors the store's error contract: a failed batch restores the
        pending queue, so store and oracle stay comparable even in
        sessions that continue past a rejected flush.
        """
        entry = self._require(doc_id)
        if not entry.pending:
            return None
        pending, entry.pending = entry.pending, []
        try:
            # full relabel: a stateless service derives labels per request
            entry.labeling = ContainmentLabeling().build(entry.document)
            batch = coalesce_batch(pending, entry.labeling,
                                   on_conflict=self.on_conflict,
                                   policies=self.policies)
            reduced = reduce_deterministic(batch)
            reduced.check_compatible()
            # apply on a copy: apply_pul mutates in place *before* its
            # XQUF dynamic checks, and a failed batch must publish
            # nothing (the store's streaming path is atomic by
            # construction)
            working = entry.document.copy()
            apply_pul(working, reduced, check=False, preserve_ids=True)
        except Exception:
            entry.pending = pending + entry.pending
            raise
        entry.document = working
        entry.version += 1
        return len(reduced)

    def discard_pending(self, doc_id):
        """Withdraw everything queued (mirrors the store's API)."""
        entry = self._require(doc_id)
        dropped = len(entry.pending)
        entry.pending = []
        return dropped

    def version(self, doc_id):
        return self._require(doc_id).version

    def document(self, doc_id):
        return self._require(doc_id).document

    def text(self, doc_id):
        return serialize(self._require(doc_id).document)
