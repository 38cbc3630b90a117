""":class:`DocumentMirror` — the reference CDC consumer.

A mirror rebuilds resident documents from the **raw** event stream
(``decode=False`` subscriptions) exactly the way crash recovery and
replicas replay the log — not by imitation but by construction: it is
an adapter over a WAL-less :class:`~repro.cluster.replica.ReplicaStore`,
and every event goes through the store's one record switch
(:meth:`~repro.store.store.DocumentStore._apply_record`). Snapshot-form
``open`` payloads restore the producer's node identifiers and label
codes, ``batch`` records run the leader's own flush (in-place apply,
headroom full-relabel rule, incremental index derivation — the label
timeline stays digit-identical when ``max_code_length`` matches the
producer's), and the per-document version counter absorbs
at-least-once redelivery. What the adapter adds is the subscriber's
framing: event unwrapping, the changed/absorbed answer, and typed
``cluster`` errors. Byte-, label- and index-identity of a mirror
against the leader (and byte-identity against
:func:`~repro.store.durability.replay_oracle`) is the CDC correctness
property the suites pin.
"""

from __future__ import annotations

from repro.cluster.replica import ReplicaStore
from repro.errors import ClusterError, RecoveryError
from repro.store.store import DEFAULT_MAX_CODE_LENGTH


class DocumentMirror:
    """Idempotent document reconstruction from raw change events.

    ``max_code_length`` is the producer's headroom threshold: a mirror
    that relabels at a different watermark than its leader would
    diverge from the leader's label timeline on the next incremental
    repair.
    """

    def __init__(self, max_code_length=DEFAULT_MAX_CODE_LENGTH):
        # serial reduction, no WAL: the store owns no thread, pool or
        # file, so a mirror needs no close()
        self._store = ReplicaStore(workers=1, backend="serial",
                                   max_code_length=max_code_length,
                                   metrics=False)

    def bootstrap(self, payloads):
        """Reset the mirror from snapshot-form payloads (an ``export``
        in ``state`` form). Pair with the export's resume token: the
        token was read *before* the payloads were pinned, so resuming
        from it re-delivers at most changes the payloads already
        contain — absorbed by the version check."""
        self._store.bootstrap(payloads, seq=0)

    def apply(self, event):
        """Make one raw subscription event effective.

        Accepts the event objects a ``decode=False`` subscription
        delivers (``{"seq", "token", "record"}``). Returns ``True``
        when the event changed a mirrored document, ``False`` when it
        was absorbed as a duplicate or carried no document change.
        """
        record = event["record"] if "record" in event else event
        try:
            outcome = self._store._apply_record(record)
        except RecoveryError as error:
            # a gap in the feed, a batch with no base state, a record
            # kind from a newer producer: the stream cannot advance
            # this mirror from where it stands
            raise ClusterError(
                "change event cannot be applied ({}) — bootstrap the "
                "mirror from an export and resume from its "
                "token".format(error)) from error
        return outcome in ("open", "close", "batch")

    def apply_all(self, events):
        """Apply a poll's worth of events; returns the applied count."""
        return sum(1 for event in events if self.apply(event))

    # -- reads ----------------------------------------------------------------

    def _published(self, doc_id):
        """The mirrored document's published version, or ``None``."""
        entry = self._store._entries.get(doc_id)
        return None if entry is None else entry.published

    def _require(self, doc_id):
        if doc_id not in self._store:
            raise ClusterError(
                "mirror holds no document {!r}".format(doc_id))

    def doc_ids(self):
        return self._store.doc_ids()

    def version(self, doc_id):
        published = self._published(doc_id)
        return None if published is None else published.version

    def text(self, doc_id):
        """Serialized bytes of the mirrored document."""
        self._require(doc_id)
        return self._store.text(doc_id)

    def labeling(self, doc_id):
        """The maintained labeling (``None`` when not mirrored)."""
        published = self._published(doc_id)
        return None if published is None else published.labeling

    def index(self, doc_id):
        """The maintained :class:`~repro.index.DocumentIndex` (``None``
        when not mirrored)."""
        published = self._published(doc_id)
        return None if published is None else published.index

    def query(self, doc_id, path, engine="auto"):
        """Indexed read over the mirrored document — the fan-out read
        surface CDC consumers exist for."""
        self._require(doc_id)
        return self._store.query(doc_id, path, explain=True,
                                 engine=engine)

    def __repr__(self):
        return "DocumentMirror(documents={})".format(
            len(self._store.doc_ids()))
