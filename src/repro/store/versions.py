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
(:data:`repro.store.reads.ANSWER_MEMO_BYTES`, counted as string and
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
unpublished one, which a :class:`StoredDocument` publishes.

The rules above are kept by two classes of this module: a
:class:`DocumentVersion` is the immutable value a reader holds, and a
:class:`StoredDocument` is one resident entry of the store — its
pending queue, its writer side (``checkout``, ``publish``, ``abandon``:
the parent-pointer rule) and the only code that installs a memo
(``keep_text``, ``keep_answer``: the memo rule). The store's residency
table holds the entries (:mod:`repro.store.store`); its reads charge
the memos to the budget (:mod:`repro.store.reads`).
"""

from __future__ import annotations

import sys
import threading
import time
from itertools import chain

from repro.errors import DurabilityError
from repro.index.structural import build_index
from repro.xdm.document import drop_copy_parents, drop_parents, restore_parents

#: default headroom budget: containment codes may grow to this many digits
#: before the store schedules a full relabel of the document
DEFAULT_MAX_CODE_LENGTH = 64

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

    __slots__ = ("doc_id", "version", "document", "labeling", "budget",
                 "batches", "incremental_relabels", "full_relabels",
                 "index", "text", "answers", "answer_bytes")

    def __init__(self, doc_id, version, document, labeling, budget,
                 batches=0, incremental_relabels=0, full_relabels=0,
                 index=None):
        self.doc_id = doc_id
        self.version = version
        self.document = document
        self.labeling = labeling
        #: the headroom budget the document was opened under: a batch
        #: that leaves a code longer than this many digits is followed
        #: by a full relabel. It travels in every payload, so every
        #: host of the document's log relabels after the same batches
        self.budget = budget
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


class StoredDocument:
    """One resident document: pending queue, writer state and its
    published :class:`DocumentVersion` — the one holder of the
    document's state (see the module docstring).

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
            previous.budget, previous.batches + 1, previous.incremental_relabels + 1 - full,
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
