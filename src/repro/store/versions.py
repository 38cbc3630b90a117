"""Immutable published document versions — the store's MVCC core.

The resident store serves reads and writes on the same documents at
millions-of-users volume; serializing every read behind the writer's
flush lock makes one slow XQuery stall the whole write path (and one
slow batch stall every reader). Multi-version concurrency control
decouples them:

* every resident document has exactly one *published*
  :class:`DocumentVersion` — an immutable ``(document, labeling)`` pair
  stamped with the version counter it represents, and the one holder
  of the document's state: its tree, labels, index and counters;
* a reader reads ``entry.published`` once — one atomic attribute read,
  no lock and no count — and walks that version freely: it is a value
  the reader holds, and nothing ever changes it;
* the single writer (serialized by the flush lock as before) builds
  version N+1 on a *private working copy* and publishes it with one
  atomic reference swap — readers mid-walk keep the version they
  hold, new readers see N+1.

Version N+1 is derived from version N, and nothing is recycled. The
writer classifies the reduced batch once against N
(:func:`repro.apply.inplace.classify`) and *path-copies* N
(:meth:`repro.xdm.document.Document.path_copy`): every node whose
child list, attribute list, name or value the batch changes — the
footprint's sites and touched nodes — and every ancestor of those is
copied shallowly, with its own child and attribute lists; every other
node is shared with N. The copy shares N's id index but keeps its
own entries apart until ``publish`` folds them in
(:meth:`repro.xdm.document.Document.commit`); from then on N answers
id lookups from an index of its own tree, built only if a reader
still holding N asks. The copy has its own allocator, and N's label
map is copied (labels are immutable and shared). The batch is applied
in place to that copy and published. A flush thus copies O(touched ×
depth) nodes and no per-node table but the label map, and a resident
document holds one tree plus whatever its retired versions' readers
still hold.

**The parent-pointer rule.** Copying a node re-points its children and
attributes to the copy. So the *newest* version's parent pointers are
exact — the writer's classification, apply, relabel and
``Node.detach`` rely on them — while a retired version's shared nodes
may point into a newer version (and a node a later batch removed
points nowhere). Publishing N+1 even clears the parent pointers of N's
copied nodes and of every subtree the batch removed (``del``,
``repN``, ``repC``) — nodes that belong to retired versions only: then
no reference cycle runs through them, and they are freed by reference
counting when the retired version's last reader drops it, instead of
waiting for the cyclic collector. The same holds wherever the store
lets go of a tree: an abandoned path copy, an entry that left the
store (``close``, a replayed ``close`` record, a replica's
re-bootstrap) and every entry of a closed store drop their parent
pointers too (store README, invariant 10). Therefore no
reader of a version follows ``.parent``: the serializer,
:func:`document_payload`, the index build and the query walker all
descend from the root, and the walker orders its results by the
version's own label codes (``run_query(...,
labeling=version.labeling)``; its predicates never order at all).
``submit_xquery`` compiles through the same walker.

A batch that fails on the copy leaves no trace: the copy is dropped,
and :meth:`StoredDocument.abandon` points the children and attributes
of every copied original back at it
(:func:`repro.xdm.document.restore_parents`) — O(copy set), and it also
restores the parent of a node the batch had detached, because that
parent is a site. Nothing of it was published, so readers, the log and
every follower still see version N exactly as it was. The copy's
own nodes — the copies and whatever the batch inserted into them —
then drop their parent pointers
(:func:`repro.xdm.document.drop_copy_parents`), so they die with the
dropped copy by reference counting.

Invariant of the memos: a version is immutable, so the first reader
that asks for its text serializes it and leaves the string on the
version (``DocumentVersion.text``) for the next, and the first
``query`` of a path leaves the answer — the tuple of serialized nodes —
in ``DocumentVersion.answers`` under the path. One rule covers both:
only the *published* version may hold a memo.
:meth:`StoredDocument.keep_text` and :meth:`StoredDocument.keep_answer`
install one only while the version is still published, and ``publish``
clears both under the same lock as the version retires. A retired
tree no longer changes, so a memo on it would stay correct; it is
cleared for what it costs. A document then holds at most one text,
however many retired versions slow readers still hold; and an
answer's bytes return to the store's budget at a known point,
``publish``, instead of whenever the last reader drops the version. A
reader that still holds a retired version computes for itself and
leaves nothing behind. No document therefore holds two texts or two
answers to one path, and a document that is only written never holds
any. Since only the constructor and ``publish`` install a published
version, the one clear in ``publish`` covers the leader, recovery and
every replica alike.

Answers, unlike texts, are bounded: every answer the store keeps is
charged to one store-wide byte budget
(:data:`repro.store.store.ANSWER_MEMO_BYTES`, counted as string and
tuple sizes by :func:`answer_size`). An answer that does not fit is
served and not kept — nothing is evicted — and the bytes come back at
exactly two points: when ``publish`` retires the version holding them,
and when the entry leaves the store (``close``, a replayed ``close``
record, a replica's re-bootstrap), where
:meth:`StoredDocument.drop_answers` takes the memo away for good.

A version is also what a payload is made from and restored to:
:func:`repro.store.durability.snapshot.document_payload` serializes a
held version — snapshot compaction and snapshot transfer capture
published versions without quiescing writers — and
:func:`~repro.store.durability.snapshot.restore_document` returns an
unpublished one, which :class:`~repro.store.store.StoredDocument`
publishes.
"""

from __future__ import annotations

import sys


def answer_size(path, nodes):
    """Bytes one memoized answer holds: the path key, the tuple and
    every node string, as ``sys.getsizeof`` counts them (object headers
    included)."""
    return (sys.getsizeof(path) + sys.getsizeof(nodes)
            + sum(map(sys.getsizeof, nodes)))


class DocumentVersion:
    """One immutable version of a resident document: its tree, labels,
    index and the counters of the batches that made it.

    No writer ever edits a version's tree, published or retired: a
    retired version stays as it was until its last reader drops its
    reference, and is freed then.
    """

    __slots__ = ("doc_id", "version", "document", "labeling", "batches",
                 "incremental_relabels", "full_relabels",
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
        #: the version's secondary index (:mod:`repro.index`), published
        #: with the pair so a reader queries exactly the version it holds;
        #: ``None`` on a restored version until an entry publishes it
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
        return "DocumentVersion(doc={!r}, v{})".format(
            self.doc_id, self.version)
