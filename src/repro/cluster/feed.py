"""The leader side of WAL shipping: :class:`ReplicationSource`.

A source attaches to a store's :class:`DurabilityManager` and turns the
write-ahead log into a *numbered record stream*: every record committed
after the source attached gets a monotonically increasing sequence
number (``seq``), and every follower — a replica applying raw
records, a consumer reading decoded events — pulls through one method,
:meth:`ReplicationSource.read` (the ``subscribe`` op), anchored by a
resume token (:mod:`repro.cluster.tokens`) that binds the stream epoch
to a sequence. Subscription state is entirely client-side: the source
holds no per-subscriber cursor, so a subscriber can disconnect, crash
or move and resume from its last token, and a failover invalidates
nothing but the tokens (the epoch fence turns them into a typed
:class:`~repro.errors.ResumeExpiredError`). Delivery is at-least-once;
followers absorb redelivery by sequence and, after a bootstrap, by the
per-document version every ``open``/``batch`` record carries.

Ingestion: the stream is what the commit train committed. Every record
enters the log through :meth:`DurabilityManager.append`, and after each
successful sync — a train leader's, or the seal of a segment rotation —
the manager hands the payload bytes it just made durable to
:meth:`ReplicationSource.on_commit`, in log order, before any writer of
that train is acknowledged. A train whose fsync failed is rolled back
and handed to nobody. So an fsynced record is on the stream by the time
its writer returns, an unsynced one never is, and nothing is read back
from the segment files.

Compaction safety follows from the same hand-off: a rotation's seal has
delivered everything the sealed segment holds before compaction deletes
it. The feed retains a bounded backlog (:attr:`backlog` records); a
follower that falls further behind than that gets
:class:`~repro.errors.SubscriptionLaggedError` and must re-bootstrap
from a state export
(:meth:`~repro.store.store.DocumentStore.export_state`), exactly like
a fresh replica.

Export pairing: ``export_state`` reads :attr:`next_seq` *first* and
captures published document versions *after*. A batch record is on the
stream before its version is published and a residency record before
the document is installed or evicted, so in that order the payloads can
only lead the seq, and a follower streaming from it re-receives at most
records the replica apply path absorbs idempotently. The reverse order
(capture, then seq) could pair payloads with a seq *past* what they
contain, silently losing the gap.

Lock order (deadlock discipline): flush/store locks -> manager lock ->
feed lock. The manager's hook holds the manager lock and only ever
takes the feed lock; the feed never takes the manager's while holding
its own.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import deque

from repro.cluster.tokens import decode_token, encode_token
from repro.errors import (
    ClusterError,
    ResumeExpiredError,
    SubscriptionLaggedError,
)
from repro.obs import StoreObs
from repro.pul.serialize import pul_from_xml
from repro.store.durability.recovery import decode_payload

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

    Construct via :meth:`DocumentStore.enable_replication` (the source
    registers itself as the manager's listener); followers are served
    through the ``subscribe`` / ``export`` protocol ops, which delegate
    here.
    """

    def __init__(self, manager, backlog=DEFAULT_BACKLOG):
        if backlog < 1:
            raise ClusterError(
                "replication backlog must be >= 1, got {}".format(backlog))
        self.manager = manager
        self.backlog = backlog
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        #: retained payload bytes, oldest first; ``_records[i]`` is seq
        #: ``_first_seq + i``. Decoded per read, so the commit path only
        #: pays an append and trimmed records are never decoded at all
        self._records = deque(maxlen=backlog)
        self._next_seq = 0
        self._first_seq = 0
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
        # history before the source existed is served via state export,
        # never as records: the stream starts with the next commit
        manager.feed_listener = self

    # -- the manager hook (called under the manager lock) ---------------------

    def on_commit(self, payloads):
        """The manager made ``payloads`` durable, in this order; number
        them and wake pollers."""
        with self._wakeup:
            self._records.extend(payloads)
            self._next_seq += len(payloads)
            self._first_seq = self._next_seq - len(self._records)
            self._m_retained.set(len(self._records))
            self._wakeup.notify_all()

    # -- the follower surface -------------------------------------------------

    @property
    def next_seq(self):
        """Sequence number the next committed record will get."""
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

    def tail_token(self):
        """A token anchored at the live end of the stream (records
        committed after this call will be delivered; history will
        not)."""
        with self._lock:
            return encode_token(self.stream_id, self._next_seq)

    def read(self, from_token=None, doc_ids=None, decode=True,
             max_events=None, wait_s=0.0, subscriber=None):
        """One subscription poll.

        Returns ``{"events", "token", "end_seq", "stream"}``: up to
        ``max_events`` (default :data:`DEFAULT_SEGMENT_RECORDS`) events
        at or after ``from_token`` (the live tail when ``None``), the
        resume token covering everything scanned, and the stream
        end/epoch at response time. Raw events (``decode=False``, what
        replicas apply) are ``{"seq", "token", "record"}``; decoded
        ones name the kind, document, version and PUL op summaries.
        Filtered-out records are acknowledged, not redelivered: the
        token covers them. Long-polls up to ``wait_s`` seconds (capped
        at :data:`MAX_WAIT_S`) while no event matching ``doc_ids`` is
        available. The token's sequence acknowledges that everything
        below it is applied (feeds the lag stats under the
        ``subscriber`` name).

        Raises :class:`ResumeExpiredError` when the token belongs to
        another stream epoch or names a sequence past the stream end,
        and :class:`SubscriptionLaggedError` when it names one the
        backlog no longer retains; either way the follower
        re-bootstraps.
        """
        if from_token is None:
            cursor = None
        else:
            stream, cursor = decode_token(from_token)
            if stream != self.stream_id:
                raise ResumeExpiredError(stream, self.stream_id)
        limit = (DEFAULT_SEGMENT_RECORDS if max_events is None
                 else max_events)
        filters = (None if doc_ids is None
                   else {str(doc_id) for doc_id in doc_ids})
        deadline = time.monotonic() + min(wait_s, MAX_WAIT_S)
        events = []
        while True:
            with self._lock:
                if cursor is None:
                    cursor = self._next_seq
                while True:
                    self._note_subscriber(subscriber, cursor)
                    if cursor > self._next_seq:
                        raise ResumeExpiredError(self.stream_id,
                                                 self.stream_id)
                    if cursor < self._first_seq:
                        raise SubscriptionLaggedError(cursor,
                                                      self._first_seq)
                    remaining = deadline - time.monotonic()
                    if cursor < self._next_seq or remaining <= 0:
                        break
                    self._wakeup.wait(remaining)
                start = cursor - self._first_seq
                payloads = list(itertools.islice(
                    self._records, start, start + limit))
                end_seq = self._next_seq
            # decoded outside the lock: the commit hand-off waits on it
            for seq, payload in enumerate(payloads, cursor):
                event = self._event(seq, decode_payload(payload),
                                    filters, decode)
                if event is not None:
                    events.append(event)
            cursor += len(payloads)
            self._m_shipped.inc(len(payloads))
            # an empty slice means the wait ran out; a page that was
            # entirely filtered out scans on (the time budget is
            # shared, not per slice)
            if events or not payloads:
                return {"events": events,
                        "token": encode_token(self.stream_id, cursor),
                        "end_seq": end_seq,
                        "stream": self.stream_id}

    def _event(self, seq, record, filters, decode):
        kind = record.get("kind")
        doc_id = record.get("doc_id")
        if kind == "open" and doc_id is None:
            doc_id = (record.get("doc") or {}).get("doc_id")
        if filters is not None and (
                doc_id is None or str(doc_id) not in filters):
            return None
        # each event carries its own resume token — the position
        # *after* it — so a consumer can checkpoint mid-page
        token = encode_token(self.stream_id, seq + 1)
        if not decode:
            return {"seq": seq, "token": token, "record": record}
        if kind == "repl-pos":
            # internal cursor bookkeeping, not a document change
            return None
        event = {"seq": seq, "token": token, "kind": kind,
                 "doc_id": doc_id}
        if kind == "open":
            event["version"] = (record.get("doc") or {}).get("version")
        elif kind == "batch":
            event["version"] = record.get("version")
            event["clients"] = record.get("clients")
            event["pul"] = record.get("pul")
            event["ops"] = _describe_pul(record.get("pul"))
        return event

    def stats(self):
        """The leader's replication block for extended ``stats``."""
        generation, synced = self.manager.wal_position()
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


def _describe_pul(text):
    """Human-readable op summaries for a logged PUL document."""
    if not text:
        return []
    try:
        pul = pul_from_xml(text)
    except Exception:  # noqa: BLE001 - describe, never fail delivery
        return ["<undecodable pul>"]
    return [op.describe() for op in pul.operations()]
