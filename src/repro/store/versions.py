"""Immutable published document versions — the store's MVCC core.

The resident store serves reads and writes on the same documents at
millions-of-users volume; serializing every read behind the writer's
flush lock makes one slow XQuery stall the whole write path (and one
slow batch stall every reader). Multi-version concurrency control
decouples them:

* every resident document has exactly one *published*
  :class:`DocumentVersion` — an immutable ``(document, labeling)`` pair
  stamped with the version counter it represents;
* readers *pin* the published version (a refcount under the entry's
  publish lock), walk it freely with no further locking, and unpin;
* the single writer (serialized by the flush lock as before) builds
  version N+1 on a *private working copy* and publishes it with one
  atomic reference swap — readers mid-walk keep the version they
  pinned, new readers see N+1.

The working copy is not a per-flush deep copy: that would turn the
O(touched) in-place apply back into O(document) per batch. Instead the
version retired by a publish becomes the *spare*: it lags the new
published version by exactly one batch, and the entry remembers that
batch's reduced PUL as the spare's *catch-up*. The next flush steals
the spare — provided no reader still pins it — replays the batch's
structural effect (:func:`repro.apply.inplace.replay_batch`,
deterministic and therefore byte- and id-identical to the published
tree), copies the published version's immutable id-keyed label map
wholesale, and mutates on. A spare still pinned by a slow reader is
abandoned to its readers and the writer falls back to one deep copy;
the common case pays one extra structural apply plus a dict copy per
flush, never O(document) tree copying or label re-derivation. Entries
are even *born* with a seeded spare — a copy made at open/restore,
where the store is already doing O(document) work — so no successful
flush in a document's life, not even the first, pays an O(document)
copy.

Invariant of the memos: a version is immutable, so the first reader
that asks for its text serializes it and leaves the string on the
version (``DocumentVersion.text``) for the next, and the first
``query`` of a path leaves the answer — the tuple of serialized nodes —
in ``DocumentVersion.answers`` under the path. One rule covers both:
only the *published* version may hold a memo.
:meth:`StoredDocument.keep_text` and :meth:`StoredDocument.keep_answer`
install one only while the version is still published, and ``publish``
clears both under the same lock before the version retires into the
spare, whose tree the next flush mutates in place. A reader that still
pins a retired version computes for itself and leaves nothing behind.
No document therefore holds two texts or two answers to one path, and
a document that is only written never holds any. Since only the
constructor and ``publish`` install a published version, the one clear
in ``publish`` covers the leader, recovery and every replica alike.

Answers, unlike texts, are bounded: every answer the store keeps is
charged to one store-wide byte budget
(:data:`repro.store.store.ANSWER_MEMO_BYTES`, counted as string and
tuple sizes by :func:`answer_size`). An answer that does not fit is
served and not kept — nothing is evicted — and the bytes come back at
exactly two points: when ``publish`` retires the version holding them,
and when the entry leaves the store (``close``, a replayed ``close``
record, a replica's re-bootstrap), where
:meth:`StoredDocument.drop_answers` takes the memo away for good.

A batch that fails on the working copy is not undone — the copy is
dropped. Nothing of it was published, so readers, the log and every
follower still see version N exactly as it was; the writer has lost
its spare and the next flush pays the one deep copy.

Durability-facing duck typing: a :class:`DocumentVersion` carries the
same ``doc_id`` / ``document`` / ``labeling`` / counter attribute names
as a resident entry, so
:func:`repro.store.durability.snapshot.document_payload` serializes a
pinned version directly — snapshot compaction and snapshot transfer
capture published versions without quiescing writers.
"""

from __future__ import annotations

import sys

from repro.apply.inplace import replay_batch


def answer_size(path, nodes):
    """Bytes one memoized answer holds: the path key, the tuple and
    every node string, as ``sys.getsizeof`` counts them (object headers
    included)."""
    return (sys.getsizeof(path) + sys.getsizeof(nodes)
            + sum(map(sys.getsizeof, nodes)))


class DocumentVersion:
    """One immutable published version of a resident document.

    ``pins`` counts readers currently walking this version; it is
    guarded by the owning entry's publish lock, not by this object. A
    retired version with live pins is never recycled into a working
    copy — its tree stays frozen until the last reader unpins and the
    garbage collector takes it.
    """

    __slots__ = ("doc_id", "version", "document", "labeling", "batches",
                 "incremental_relabels", "full_relabels", "pins",
                 "index", "text", "answers", "answer_bytes")

    def __init__(self, doc_id, version, document, labeling, batches=0,
                 incremental_relabels=0, full_relabels=0, index=None):
        self.doc_id = doc_id
        self.version = version
        self.document = document
        self.labeling = labeling
        self.batches = batches
        self.incremental_relabels = incremental_relabels
        self.full_relabels = full_relabels
        self.pins = 0
        #: the version's secondary index (:mod:`repro.index`), published
        #: with the pair so a pinned reader queries exactly its version;
        #: ``None`` only on working copies, which are never queried
        self.index = index
        #: memo of ``serialize(document)``; only the published version
        #: ever holds one (see the module docstring)
        self.text = None
        #: memo of ``query`` answers, path -> tuple of node strings;
        #: ``None`` once the version retired or its entry left the
        #: store (see the module docstring)
        self.answers = {}
        #: what ``answers`` holds, by :func:`answer_size`
        self.answer_bytes = 0

    def forget_answers(self):
        """Take the answer memo away for good; returns the bytes it
        held. The caller holds the owning entry's publish lock."""
        freed = self.answer_bytes
        self.answers = None
        self.answer_bytes = 0
        return freed

    def __repr__(self):
        return "DocumentVersion(doc={!r}, v{}, pins={})".format(
            self.doc_id, self.version, self.pins)


def replay_catchup(spare, published, catchup):
    """Catch the retired ``spare`` up to ``published``; returns the
    caught-up ``(document, labeling)`` working pair.

    Only the *tree* is replayed: ``catchup`` is the reduced PUL of the
    batch whose publish retired the spare — the only thing a spare can
    lag by, since nothing but a successful batch ever publishes — or
    ``None`` for the seed made at open/restore, which lags nothing.
    Its structural effect is replayed
    (:func:`repro.apply.inplace.replay_batch`, deterministic and
    therefore byte- and id-identical to the published tree). The
    labeling is never re-derived: labels are immutable and keyed by
    node id, and the caught-up tree carries exactly the published
    tree's ids, so the published label map is *copied* wholesale — one
    dict copy instead of per-site code generation, which keeps the
    catch-up strictly cheaper than the live apply it mirrors.
    """
    if catchup is not None:
        replay_batch(spare.document, spare.labeling, catchup)
    return spare.document, published.labeling.copy()
