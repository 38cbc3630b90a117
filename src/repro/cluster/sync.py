"""The replica's pull loop: :class:`ReplicaSync`.

One daemon thread per replica that dials the leader (with
reconnect-and-backoff, so cluster bootstrap races never surface as raw
``ConnectionRefusedError``) and follows it through the one follower
protocol every consumer speaks: long-poll ``subscribe`` for raw log
records, applied through
:meth:`~repro.cluster.replica.ReplicaStore.apply_records`, and paged
``export`` in state form whenever the stream cannot be joined in place.

Bootstrap decision: the *leader* makes it. A replica that recorded a
position resumes from the token naming it; the leader answers
:class:`~repro.errors.ResumeExpiredError` when that position belongs to
another stream epoch (it restarted, or a promotion renumbered the
stream) and :class:`~repro.errors.SubscriptionLaggedError` when the
retained window slid past it — on connect or mid-stream alike — and
the loop re-bootstraps on the same connection and carries on. A fresh
replica has no token and bootstraps first. Pages after the first may
*lead* the anchor (the first page's token); replay absorbs the overlap.

Leader loss is survived, not fatal: the loop keeps retrying with capped
exponential backoff until it is stopped or the replica is promoted. A
``not-leader`` answer from the upstream (it was itself demoted or is a
replica) follows the advertised redirect when one is carried.
"""

from __future__ import annotations

import threading
import time

from repro.api.client import StoreClient
from repro.cluster.tokens import encode_token
from repro.errors import (
    ClusterError,
    NotLeaderError,
    ProtocolError,
    RecoveryError,
    ReproError,
    ResumeExpiredError,
    SubscriptionLaggedError,
)
from repro.obs import StoreObs

#: documents per ``export`` page of a bootstrap: bounds the frame a
#: transfer needs by the page, not by the size of the store
BOOTSTRAP_PAGE_DOCS = 64


def parse_address(address):
    """``host:port`` -> ``(host, port)``: the one parser of TCP
    addresses, whether listened on or dialed. The port is decimal
    digits only and at most 65535 (``int()`` alone would take ``+80``
    or ``8_0``, and a socket wraps ``70000`` to another port)."""
    host, sep, port = str(address).rpartition(":")
    if not sep or not host:
        raise ReproError(
            "addresses are host:port, got {!r}".format(address))
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ReproError(
            "address port must be a number in 0-65535, got "
            "{!r}".format(port))
    return host, int(port)


class ReplicaSync:
    """Stream a leader's WAL into one :class:`ReplicaStore`.

    Parameters
    ----------
    replica:
        The store to feed (also receives ``attach_sync`` so
        ``promote`` can stop the loop).
    leader:
        ``host:port`` of the leader to follow.
    replica_id:
        Name announced to the leader (feeds its lag stats) and used as
        the connection identity.
    wait_s / max_records:
        Long-poll window and page size of each ``subscribe`` pull.
    backoff / max_backoff:
        Retry schedule after a failed attempt (doubling up to the cap;
        a streamed page resets it).
    """

    def __init__(self, replica, leader, replica_id,
                 wait_s=2.0, max_records=256,
                 backoff=0.2, max_backoff=5.0):
        self.replica = replica
        self.leader = str(leader)
        self.replica_id = str(replica_id)
        self.wait_s = wait_s
        self.max_records = max_records
        self.backoff = backoff
        self.max_backoff = max_backoff
        self._stop = threading.Event()
        self._delay = backoff
        self._client = None
        self._client_lock = threading.Lock()
        self._thread = threading.Thread(
            target=self._run, daemon=True,
            name="replica-sync-{}".format(self.replica_id))
        #: observability, surfaced through the replica's extended stats
        self.connected = False
        self.last_error = None
        self.last_end_seq = None
        self.lag_seconds = 0.0
        obs = getattr(replica, "obs", None)
        self._obs = obs if obs is not None else StoreObs(enabled=False)
        self._m_behind = self._obs.gauge(
            "repro_replication_behind_records",
            help_text="Records between the leader's stream end and "
                      "this replica's applied position")
        self._m_lag = self._obs.gauge(
            "repro_replication_lag_seconds",
            help_text="Seconds since this replica was last caught up "
                      "with the leader (0 while caught up)")
        self._m_applied = self._obs.counter(
            "repro_replication_records_applied_total",
            help_text="Leader WAL records applied by this replica")
        self._caught_up_at = time.monotonic()
        replica.attach_sync(self)

    # -- lifecycle -----------------------------------------------------------

    def start(self):
        self._thread.start()
        return self

    def stop(self, join=True, timeout=30.0):
        """Stop the loop; ``join=True`` waits until the in-flight
        page (if any) has been applied, so callers observe a settled
        replica."""
        self._stop.set()
        with self._client_lock:
            client = self._client
            self._client = None
        if client is not None:
            # closing the socket from here unblocks a long-poll recv
            client.close()
        if join and self._thread.is_alive() \
                and self._thread is not threading.current_thread():
            self._thread.join(timeout)

    @property
    def stopped(self):
        return self._stop.is_set()

    def status(self):
        return {"leader": self.leader, "connected": self.connected,
                "applied_seq": self.replica.applied_seq,
                "behind": (None if self.last_end_seq is None else
                           max(0, self.last_end_seq
                               - self.replica.applied_seq)),
                "lag_seconds": self.lag_seconds,
                "last_error": self.last_error}

    # -- the loop ------------------------------------------------------------

    def _run(self):
        while not self._stop.is_set():
            try:
                client = self._connect()
                if client is None:
                    return
                self._stream(client)
            except (ConnectionError, OSError, ProtocolError) as exc:
                self._note_error(exc)
            except NotLeaderError as exc:
                # the upstream is (now) a replica itself; follow its
                # advertised leader when it knows one
                self._note_error(exc)
                if exc.leader:
                    self.leader = str(exc.leader)
                    self.replica.leader_address = self.leader
            except RecoveryError as exc:
                # the stream does not apply to what this replica holds
                # (a bootstrap page led its anchor across a close):
                # retrying the position can only fail again, so forget
                # it — the next attempt bootstraps
                self._note_error(exc)
                self.replica.stream_id = None
            except ReproError as exc:
                self._note_error(exc)
            finally:
                self._drop_client()
            if self._stop.wait(self._delay):
                return
            self._delay = min(self._delay * 2, self.max_backoff)

    def _connect(self):
        host, port = parse_address(self.leader)
        client = StoreClient.connect(
            host=host, port=port, client=self.replica_id,
            timeout=max(self.wait_s * 4, 10.0),
            retries=2, backoff=self.backoff, max_backoff=self.max_backoff)
        with self._client_lock:
            if self._stop.is_set():
                client.close()
                return None
            self._client = client
        self.connected = True
        self.replica.leader_address = self.leader
        return client

    def _drop_client(self):
        self.connected = False
        with self._client_lock:
            client = self._client
            self._client = None
        if client is not None:
            client.close()

    def _stream(self, client):
        replica = self.replica
        token = (None if replica.stream_id is None else
                 encode_token(replica.stream_id, replica.applied_seq))
        while not self._stop.is_set():
            try:
                if token is None:
                    token = self._bootstrap(client)
                page = client.subscribe_once(
                    from_token=token, decode=False,
                    max_events=self.max_records, wait_s=self.wait_s,
                    subscriber=self.replica_id)
            except (ResumeExpiredError, SubscriptionLaggedError) as exc:
                # our position means nothing to this leader (another
                # epoch, past its stream end) or slid out of its
                # retained window: start over on this same connection
                self._note_error(exc)
                token = None
                continue
            token = page["token"]
            replica.apply_records(page)
            self.last_end_seq = page["end_seq"]
            self.last_error = None
            # a page streamed resets the schedule; a dial alone does
            # not — an upstream that connects but cannot be followed
            # is backed off from like one that is down
            self._delay = self.backoff
            self._note_progress(len(page["events"]), page["end_seq"])

    def _bootstrap(self, client):
        """Install the upstream's state from paged ``export``; returns
        the token to stream from — the *first* page's, which every
        later page can only lead."""
        first = page = client.export(max_docs=BOOTSTRAP_PAGE_DOCS,
                                     format="state")
        if first["token"] is None:
            # no feed behind this state. The upstream's own answer to a
            # subscribe says why: not-leader (with the redirect) from a
            # replica, a cluster error from a plain store
            client.subscribe_once(max_events=1)
            raise ClusterError(
                "{} exported no resume token".format(self.leader))
        docs = list(first["docs"])
        while not page["done"]:
            page = client.export(cursor=page["cursor"],
                                 max_docs=BOOTSTRAP_PAGE_DOCS,
                                 format="state")
            docs.extend(page["docs"])
        self.replica.bootstrap(docs, first["seq"], stream=first["stream"])
        return first["token"]

    def _note_progress(self, applied, end_seq):
        """Feed the replication gauges after one page: how far
        behind the stream end we are (records) and for how long
        (seconds since we were last fully caught up)."""
        if applied:
            self._m_applied.inc(applied)
        behind = max(0, end_seq - self.replica.applied_seq)
        now = time.monotonic()
        if behind == 0:
            self._caught_up_at = now
        self.lag_seconds = (0.0 if behind == 0
                            else round(now - self._caught_up_at, 3))
        self._m_behind.set(behind)
        self._m_lag.set(self.lag_seconds)

    def _note_error(self, exc):
        self.last_error = "{}: {}".format(type(exc).__name__, exc)

    def __repr__(self):
        return ("ReplicaSync({!r} <- {}, applied_seq={}, "
                "connected={})".format(
                    self.replica_id, self.leader,
                    self.replica.applied_seq, self.connected))
