"""The follower side of WAL shipping: :class:`ReplicaStore`.

A replica is a :class:`~repro.store.store.DocumentStore` that gets its
batches from a leader's record stream instead of from clients: it
bootstraps from a state export (the leader's full resident state
paired with the stream position it describes), then applies streamed
WAL records through the exact replay machinery PR 3 recovery uses — so
replica state is, by construction, what the leader would recover to at
the same log position (store-README invariant 8).

Reads (``text`` / ``stats`` / ``docs`` / read-only ``query``) are
served locally; every write is rejected with a typed
:class:`~repro.errors.NotLeaderError` carrying the leader's address, so
routing clients follow the redirect instead of failing.

A replica may itself be durable (its own ``wal_dir``): applied records
are write-ahead logged *locally* before application, and a ``repl-pos``
cursor record after every applied page remembers how far the stream
got — a SIGKILLed replica replays its own WAL tail on restart and
resumes streaming from the recovered position. That same local WAL is
what :meth:`ReplicaStore.promote` turns into leadership: the promoted
node's log already holds everything it acknowledged applying, so it
attaches a :class:`~repro.cluster.feed.ReplicationSource` and starts
serving followers of its own.

A replica with no ``wal_dir`` is also the one host for any downstream
consumer that wants documents rather than events: it calls
:meth:`ReplicaStore.bootstrap` with a paged ``export`` in state form
and :meth:`ReplicaStore.apply_records` with each raw ``subscribe``
page, exactly as :class:`~repro.cluster.sync.ReplicaSync` does, and
reads the result through the store's own ``text`` / ``query``.
"""

from __future__ import annotations

import threading

from repro.cluster.tokens import decode_token
from repro.errors import ClusterError, NotLeaderError
from repro.store.durability.snapshot import restore_document
from repro.store.store import DocumentStore


class ReplicaStore(DocumentStore):
    """A read-only :class:`DocumentStore` fed by a leader's WAL stream.

    Parameters are those of :class:`DocumentStore` plus
    ``leader_address`` (the ``host:port`` carried inside ``not-leader``
    rejections). A durable replica (``wal_dir=``) recovers both its
    documents and its replication cursor (:attr:`applied_seq`) on
    construction.
    """

    def __init__(self, leader_address=None, **kwargs):
        #: next leader sequence number to apply (everything below it is
        #: applied) and the stream epoch it belongs to; set before
        #: super().__init__ because recovery may replay repl-pos
        #: records into them
        self.applied_seq = 0
        self.stream_id = None
        super().__init__(**kwargs)
        self.role = "replica"
        self.leader_address = leader_address
        self._apply_lock = threading.Lock()
        self._sync = None

    # -- write rejection ------------------------------------------------------

    def _reject_write(self, operation):
        if self.role == "replica":
            raise NotLeaderError(self.leader_address, operation=operation)

    def open(self, doc_id, source):
        self._reject_write("open")
        return super().open(doc_id, source)

    def close_document(self, doc_id):
        self._reject_write("close")
        return super().close_document(doc_id)

    def bulk_load(self, docs):
        self._reject_write("bulk-import")
        return super().bulk_load(docs)

    def submit(self, doc_id, pul, client=None):
        self._reject_write("submit")
        return super().submit(doc_id, pul, client=client)

    def submit_xquery(self, doc_id, expression, client=None):
        self._reject_write("submit-xquery")
        return super().submit_xquery(doc_id, expression, client=client)

    def discard_pending(self, doc_id):
        self._reject_write("discard")
        return super().discard_pending(doc_id)

    def flush(self, doc_id, num_shards=None):
        self._reject_write("flush")
        return super().flush(doc_id, num_shards=num_shards)

    def flush_all(self, num_shards=None):
        self._reject_write("flush")
        return super().flush_all(num_shards=num_shards)

    # -- the streaming apply path ---------------------------------------------

    def _replay_position(self, record):
        # repl-pos records in the replica's own WAL restore the cursor
        seq = record.get("seq", 0)
        if seq >= self.applied_seq:
            self.applied_seq = seq
            self.stream_id = record.get("stream", self.stream_id)

    def attach_sync(self, sync):
        """Register the :class:`~repro.cluster.sync.ReplicaSync` pulling
        for this store, so :meth:`promote` can stop it."""
        self._sync = sync

    def bootstrap(self, payloads, seq, stream=None):
        """Install a state export: full leader state at (or past)
        position ``seq`` of stream epoch ``stream``.

        Replaces whatever was resident (the re-bootstrap path after a
        :class:`~repro.errors.SubscriptionLaggedError` or a stream-epoch
        change). A durable replica seals the transfer into its own
        snapshot generation immediately — its WAL must describe the
        *new* timeline, not prepend stale opens to it — and logs the
        cursor.
        """
        with self._apply_lock:
            fresh = {}
            for payload in payloads:
                entry = self._restored_entry(restore_document(payload))
                if entry.doc_id in fresh:
                    raise ClusterError(
                        "state export names {!r} twice".format(
                            entry.doc_id))
                fresh[entry.doc_id] = entry
            with self._lock:
                # swapped in as one assignment: a concurrent read sees
                # the old timeline or the new one, never a half-empty
                # store mid-rebootstrap
                replaced, self._entries = self._entries, fresh
            for entry in replaced.values():
                self._evicted(entry)
            self.applied_seq = seq
            self.stream_id = stream
            if self._durability is not None:
                generation = self.snapshot()
                if generation is None:
                    raise ClusterError(
                        "bootstrap could not seal its snapshot (another "
                        "compaction in flight?)")
                self._durability.log_position(seq, stream=stream)
        return {"docs": sorted(fresh), "seq": seq}

    def apply_records(self, page):
        """Apply one raw ``subscribe`` page as the leader sends it:
        ``page["events"]`` the ``[{"seq", "record", ...}, ...]`` list,
        ``page["token"]`` the resume token for the follow-up request.

        Applied strictly in sequence through the switch recovery
        replays (:meth:`DocumentStore._apply_record`, run live):
        already-applied sequences are skipped (idempotent redelivery),
        a gap or a page of another stream epoch is a stream bug and
        raises. A durable replica write-ahead logs each record into its
        own WAL before applying it, then records the advanced cursor.
        Reads never block on the apply path — they pin published
        versions — so a replica serves reads at full speed while the
        sync thread streams.
        """
        stream, next_seq = decode_token(page["token"])
        records = page["events"]
        with self._apply_lock:
            if stream != self.stream_id:
                raise ClusterError(
                    "page of stream {} applied to a replica on stream "
                    "{} — bootstrap first".format(stream, self.stream_id))
            for item in records:
                seq = item.get("seq")
                if not isinstance(seq, int) or isinstance(seq, bool):
                    raise ClusterError(
                        "replicated record carries no integer seq: "
                        "{!r}".format(item))
                if seq < self.applied_seq:
                    continue
                if seq > self.applied_seq:
                    raise ClusterError(
                        "replication stream gap: expected seq {}, got "
                        "{}".format(self.applied_seq, seq))
                self._apply_record(item.get("record") or {})
                self.applied_seq = seq + 1
            if next_seq > self.applied_seq:
                raise ClusterError(
                    "leader advanced the cursor to {} but only seq {} "
                    "was shipped".format(next_seq, self.applied_seq))
            if records and self._durability is not None:
                self._durability.log_position(self.applied_seq,
                                              stream=self.stream_id)
        return self.applied_seq

    # -- failover -------------------------------------------------------------

    def promote(self, backlog=None, allow_non_durable=False):
        """Convert this replica into a leader (manual failover).

        Stops the streaming sync first — joining it applies every
        record already fetched, and a *restarted* replica has already
        replayed its local WAL tail on construction — so promotion
        never discards an acknowledged batch. The promoted node
        immediately attaches a replication source, ready to serve
        followers of its own (which must re-bootstrap: the new leader's
        stream is renumbered). Idempotent.

        A replica without a WAL is refused by default: promoting it
        would mint a leader whose acked batches die with the process
        and that cannot feed followers — the exact guarantees a
        failover exists to keep. ``allow_non_durable=True`` overrides
        for a last-resort salvage when no durable node survived.
        """
        if self._durability is None and not allow_non_durable:
            raise ClusterError(
                "refusing to promote a replica with no write-ahead "
                "log: the promoted leader could not make batches "
                "durable or feed followers (pass allow_non_durable "
                "/ --allow-non-durable to salvage anyway)")
        sync = self._sync
        if sync is not None:
            sync.stop(join=True)
            self._sync = None
        with self._apply_lock:
            already = self.role == "leader"
            self.role = "leader"
            self.leader_address = None
            if self._durability is not None:
                self.enable_replication(backlog=backlog)
        return {"role": "leader", "promoted": not already,
                "applied_seq": self.applied_seq}
