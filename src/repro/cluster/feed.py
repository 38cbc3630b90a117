"""The leader side of WAL shipping: :class:`ReplicationSource`.

A source attaches to a store's :class:`DurabilityManager` and turns the
write-ahead log into a *numbered record stream*: every record appended
after the source starts gets a monotonically increasing sequence number
(``seq``), and followers pull contiguous ranges with
``read_from(seq)`` (the ``subscribe`` op, through
:class:`~repro.cdc.feed.ChangeFeed`). Ingestion goes through the
:class:`~repro.store.durability.wal.WalTailReader` — records are read
back from the segment files, never forked off the in-memory write path
— bounded by the writer's synced offset, so the feed can never ship a
record that a failed append might still roll back. An fsynced record is
on the wire-visible stream; an unsynced one never is.

Compaction safety: when the manager rotates the active segment, its
``on_rotate`` hook drains the sealed file into the feed *before* the
superseded files are deleted (the hook runs under the manager lock,
ahead of the unlink). The feed itself retains a bounded backlog
(:attr:`backlog` records); a follower that falls further behind than
that gets :class:`~repro.errors.SubscriptionLaggedError` and must
re-bootstrap from a state export
(:meth:`~repro.store.store.DocumentStore.export_state`), exactly like
a fresh replica.

Export pairing: ``export_state`` reads :attr:`next_seq` *first* and
captures published document versions *after*. That order is
leading-safe — ingestion is lazy, so the seq read can only under-count
what the payloads already reflect, and a follower streaming from it
re-receives at most records the replica apply path absorbs idempotently.
The reverse order (capture, then seq) could pair payloads with a seq
*past* what they contain, silently losing the gap.

Lock order (deadlock discipline): flush/store locks -> manager lock ->
feed lock. The manager's hooks hold the manager lock and only ever take
the feed lock; the feed only calls :meth:`DurabilityManager
.wal_position` *before* taking its own lock.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import deque

from repro.errors import (
    ClusterError,
    ProtocolError,
    ResumeExpiredError,
    SubscriptionLaggedError,
)
from repro.obs import StoreObs
from repro.store.durability.recovery import decode_payload
from repro.store.durability.wal import WalTailReader

#: default bound on retained records; a follower behind by more than
#: this re-bootstraps from a state export
DEFAULT_BACKLOG = 4096

#: server-side cap on one long-poll wait (seconds) — a follower asking
#: for more parks an executor thread for that long
MAX_WAIT_S = 30.0

#: default records per subscribe page
DEFAULT_SEGMENT_RECORDS = 256

#: a subscriber that has not polled for this long is presumed gone and
#: dropped from the lag stats (replica restarts mint fresh ids, so dead
#: entries would otherwise accumulate forever and skew the numbers an
#: operator reads before picking a promote target)
SUBSCRIBER_TTL_S = 600.0


class ReplicationSource:
    """Numbered, bounded record stream over one store's write-ahead log.

    Construct via :meth:`DocumentStore.enable_replication` (the store
    wires the manager hooks up); followers are served through the
    ``subscribe`` / ``export`` protocol ops, which delegate here.
    """

    def __init__(self, manager, backlog=DEFAULT_BACKLOG):
        if backlog < 1:
            raise ClusterError(
                "replication backlog must be >= 1, got {}".format(backlog))
        self.manager = manager
        self.backlog = backlog
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._records = deque()     # (seq, decoded record dict)
        self._next_seq = 0
        self._first_seq = 0         # seq of _records[0] when non-empty
        self.subscribers = {}       # replica id -> {"acked_seq", "at"}
        #: stream epoch: sequence numbers are meaningless across leader
        #: restarts and promotions (each renumbers from zero), so every
        #: source mints a fresh identity and followers re-bootstrap on
        #: a mismatch instead of silently splicing two timelines
        self.stream_id = uuid.uuid4().hex
        # metrics ride the owning store's registry (the manager holds
        # its StoreObs); a bare manager gets null instruments
        obs = getattr(manager, "_obs", None)
        self._obs = obs if obs is not None else StoreObs(enabled=False)
        self._m_subscribers = self._obs.gauge(
            "repro_replication_subscribers",
            help_text="Followers currently tracked in the lag stats")
        self._m_retained = self._obs.gauge(
            "repro_replication_retained_records",
            help_text="Records currently held in the feed backlog")
        self._m_shipped = self._obs.counter(
            "repro_replication_records_shipped_total",
            help_text="WAL records served to followers via subscribe")
        self._m_max_lag = self._obs.gauge(
            "repro_replication_max_lag_records",
            help_text="Largest follower lag in records (0 when every "
                      "acked follower is caught up)")
        # anchor at the current durable end of the log: history before
        # the source existed is served via state export, never as
        # records. Anchoring and hook attachment are one atomic step
        # (manager lock) — a rotation slipping between them would
        # advance the generation with no on_rotate ever delivered,
        # freezing the feed forever.
        generation, path, synced = manager.attach_feed(self)
        self._generation = generation
        self._reader = WalTailReader(path, offset=synced)

    # -- manager hooks (called under the manager lock) ------------------------

    def on_append(self):
        """A record was appended and synced; wake pollers.

        Decoding happens lazily in :meth:`_ingest` on the next read —
        the hook must stay cheap, it runs inside the manager's append
        path.
        """
        with self._wakeup:
            self._wakeup.notify_all()

    def on_rotate(self, sealed_generation, sealed_path, new_generation,
                  new_path):
        """Compaction sealed a segment: drain it before it is deleted."""
        with self._lock:
            if sealed_generation != self._generation:
                # the feed is already past the sealed segment (promoted
                # mid-rotation or re-anchored); nothing to drain
                self._generation = new_generation
                self._reader = WalTailReader(new_path, offset=0)
                self._wakeup.notify_all()
                return
            # the sealed file is closed and fully synced: read to EOF
            self._absorb(self._reader.read())
            self._generation = new_generation
            self._reader = WalTailReader(new_path, offset=0)
            self._wakeup.notify_all()

    # -- ingestion -----------------------------------------------------------

    def _absorb(self, raw_records):
        # records that cannot survive the backlog trim are counted but
        # never decoded — a rotation drain of a long-lived segment must
        # not pay O(segment) JSON decoding under the compaction locks
        survivors_from = max(0, len(raw_records) - self.backlog)
        for index, (__, payload) in enumerate(raw_records):
            if index >= survivors_from:
                self._records.append(
                    (self._next_seq, decode_payload(payload)))
            self._next_seq += 1
        while len(self._records) > self.backlog:
            self._records.popleft()
        if self._records:
            self._first_seq = self._records[0][0]
        else:
            self._first_seq = self._next_seq
        self._m_retained.set(len(self._records))

    def _ingest(self):
        """Pull newly synced records off the active segment."""
        # position read *before* the feed lock (manager -> feed order);
        # a rotation between the two is caught by the generation check
        generation, __, synced = self.manager.wal_position()
        with self._lock:
            if generation != self._generation:
                # a rotation happened after our position read; since
                # the listener was attached atomically with the anchor,
                # on_rotate has (or will have) drained the sealed
                # segment and advanced the reader — nothing to do here
                return
            self._absorb(self._reader.read(up_to=synced))

    # -- the follower surface -------------------------------------------------

    @property
    def next_seq(self):
        """Sequence number the next logged record will get.

        Ingestion is pull-based, so the returned value is a *lower
        bound* on what the log already holds — which is exactly the
        safe direction for ``export_state``'s seq-before-payloads
        pairing (the payloads may lead the seq, never lag it)."""
        self._ingest()
        with self._lock:
            return self._next_seq

    @property
    def first_seq(self):
        """Oldest sequence number still retained."""
        with self._lock:
            return self._first_seq

    def _note_subscriber(self, replica, acked_seq):
        """Record a follower sighting and age out silent ones (call
        with the feed lock held)."""
        now = time.monotonic()
        if replica is not None:
            self.subscribers[str(replica)] = {"acked_seq": acked_seq,
                                              "at": now}
        for name in [name for name, state in self.subscribers.items()
                     if now - state["at"] > SUBSCRIBER_TTL_S]:
            del self.subscribers[name]
        self._m_subscribers.set(len(self.subscribers))
        self._m_max_lag.set(max(
            (self._next_seq - state["acked_seq"]
             for state in self.subscribers.values()), default=0))

    def forget_subscriber(self, replica):
        """Drop a named subscriber from the lag stats.

        Backs the ``unsubscribe`` protocol op: a CDC consumer that is
        done should not linger in :attr:`subscribers` for
        :data:`SUBSCRIBER_TTL_S` and skew the lag numbers an operator
        reads. Returns whether the name was present.
        """
        with self._lock:
            forgotten = self.subscribers.pop(str(replica), None) is not None
            self._m_subscribers.set(len(self.subscribers))
            return forgotten

    def read_from(self, from_seq, limit=DEFAULT_SEGMENT_RECORDS,
                  wait_s=0.0, replica=None):
        """Records ``from_seq ..`` (at most ``limit``), long-polling up
        to ``wait_s`` seconds when the follower is already caught up.

        Returns ``(records, next_seq, end_seq)`` where ``records`` is a
        list of ``{"seq": n, "record": {...}}`` objects, ``next_seq``
        is the cursor for the follower's next call and ``end_seq`` the
        stream end at response time. ``from_seq`` acknowledges that
        everything below it is applied (feeds the leader's lag stats).
        Raises :class:`SubscriptionLaggedError` when ``from_seq`` is
        older than the retained backlog and :class:`ResumeExpiredError`
        when it is past the stream end (a position this epoch never
        issued); either way the follower re-bootstraps.
        """
        if not isinstance(from_seq, int) or isinstance(from_seq, bool) \
                or from_seq < 0:
            raise ProtocolError(
                "the feed is read from a non-negative integer "
                "sequence, got {!r}".format(from_seq))
        limit = max(1, int(limit))
        deadline = time.monotonic() + min(max(0.0, float(wait_s)),
                                          MAX_WAIT_S)
        while True:
            self._ingest()
            with self._lock:
                self._note_subscriber(replica, from_seq)
                if from_seq > self._next_seq:
                    raise ResumeExpiredError(self.stream_id,
                                             self.stream_id)
                if from_seq < self._first_seq:
                    raise SubscriptionLaggedError(from_seq,
                                                  self._first_seq)
                if from_seq < self._next_seq:
                    start = from_seq - self._first_seq
                    records = [{"seq": seq, "record": record}
                               for seq, record in itertools.islice(
                                   self._records, start, start + limit)]
                    next_seq = from_seq + len(records)
                    self._m_shipped.inc(len(records))
                    return records, next_seq, self._next_seq
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return [], from_seq, self._next_seq
                self._wakeup.wait(remaining)

    def stats(self):
        """The leader's replication block for extended ``stats``."""
        self._ingest()
        generation, __, synced = self.manager.wal_position()
        with self._lock:
            subscribers = {
                name: {"acked_seq": state["acked_seq"],
                       "lag": self._next_seq - state["acked_seq"]}
                for name, state in self.subscribers.items()}
            return {"seq": self._next_seq,
                    "first_seq": self._first_seq,
                    "backlog": self.backlog,
                    "stream": self.stream_id,
                    "wal": {"generation": generation, "offset": synced},
                    "subscribers": subscribers}

    def __repr__(self):
        with self._lock:
            return ("ReplicationSource(seq={}, retained={}, "
                    "subscribers={})".format(
                        self._next_seq, len(self._records),
                        len(self.subscribers)))
