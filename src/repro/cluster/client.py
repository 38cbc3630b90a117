"""Partition-aware routing client: :class:`ClusterClient`.

The cluster's write surface is sharded by document: a consistent-hash
ring (:class:`HashRing`) maps every ``doc_id`` to one leader shard, so
a deployment of N leaders splits the document space N ways while each
document keeps the single-leader semantics the store's coalescing
depends on. Reads (``text`` / ``stats`` / ``docs`` / ``query``) can
fan out: with ``read_replicas=True`` the client round-robins each
shard's read traffic across its replicas and falls back to the leader
when none answers.

Redirects make the topology self-correcting: a write answered with the
typed ``not-leader`` error (a replica was dialed, or a promotion moved
leadership) is retried against the address the error carries, and the
shard table is updated in place — so a manual failover needs no client
restart, just the ``promote``.

Consistent hashing (not modulo) keeps resharding cheap: adding a shard
moves only the ring arcs it takes over, roughly ``1/N`` of the
documents, instead of reshuffling everything.
"""

from __future__ import annotations

import bisect
import hashlib
import time

from repro.api.client import StoreClient
from repro.cluster.sync import parse_address
from repro.errors import (
    ClusterError,
    ConnectionLostError,
    NotLeaderError,
    ProtocolError,
)

#: virtual nodes per shard on the ring — enough that the arc sizes even
#: out across shards without making lookups measurably slower
DEFAULT_VNODES = 64

#: after a failed dial, a replica address sits out of read fan-out for
#: this long — otherwise every Nth read pays the full connect-and-retry
#: bill against a node that is known to be down
REPLICA_COOLDOWN_S = 2.0


def _ring_hash(key):
    # sha1 for distribution quality, not security; int for bisect
    return int.from_bytes(hashlib.sha1(
        key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Deterministic consistent-hash ring over named shards."""

    def __init__(self, names, vnodes=DEFAULT_VNODES):
        names = list(names)
        if not names:
            raise ClusterError("a hash ring needs at least one shard")
        if len(set(names)) != len(names):
            raise ClusterError(
                "shard names must be unique, got {!r}".format(names))
        self.names = names
        self.vnodes = vnodes
        points = []
        for name in names:
            for vnode in range(vnodes):
                points.append((_ring_hash("{}#{}".format(name, vnode)),
                               name))
        points.sort()
        self._points = [point for point, __ in points]
        self._owners = [name for __, name in points]

    def lookup(self, key):
        """The shard owning ``key`` (clockwise-next virtual node)."""
        index = bisect.bisect(self._points, _ring_hash(str(key)))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def __len__(self):
        return len(self.names)


class _Shard:
    """One partition: a leader address, optional replica addresses and
    the cached connections to them (keyed by address — after a
    failover, the old leader's connection must not masquerade as the
    new one's)."""

    __slots__ = ("name", "leader", "replicas", "_write_clients",
                 "_replica_clients", "_read_turn", "_down_until")

    def __init__(self, name, leader, replicas):
        self.name = name
        self.leader = leader
        self.replicas = list(replicas)
        self._write_clients = {}
        self._replica_clients = {}
        self._read_turn = 0
        self._down_until = {}    # address -> monotonic cooldown end

    def close(self):
        for cache in (self._write_clients, self._replica_clients):
            for client in cache.values():
                client.close()
            cache.clear()

    def invalidate(self, address, cooldown=0.0):
        for cache in (self._write_clients, self._replica_clients):
            stale = cache.pop(address, None)
            if stale is not None:
                stale.close()
        if cooldown > 0:
            self._down_until[address] = time.monotonic() + cooldown

    def cooling_down(self, address):
        until = self._down_until.get(address)
        if until is None:
            return False
        if time.monotonic() >= until:
            del self._down_until[address]
            return False
        return True


class ClusterClient:
    """Route store operations across a sharded, replicated deployment.

    ``shards`` is a list of ``{"leader": "host:port", "replicas":
    ["host:port", ...], "name": ...}`` dicts (``replicas`` and ``name``
    optional; the name defaults to the initial leader address and is
    the stable ring identity, so leadership moves never re-partition
    the document space). Not thread-safe — one router per thread, like
    the underlying :class:`StoreClient`.
    """

    #: ops served by replicas when read fan-out is on
    READ_OPS = frozenset({"text", "stats", "docs", "query"})

    def __init__(self, shards, client=None, read_replicas=True,
                 retries=2, backoff=0.1, max_backoff=2.0, timeout=30.0):
        if not shards:
            raise ClusterError("ClusterClient needs at least one shard")
        self.client = client
        self.read_replicas = read_replicas
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.timeout = timeout
        self._closed = False
        self._shards = {}
        names = []
        for spec in shards:
            if isinstance(spec, str):
                spec = {"leader": spec}
            leader = spec["leader"]
            name = str(spec.get("name", leader))
            names.append(name)
            self._shards[name] = _Shard(name, leader,
                                        spec.get("replicas", ()))
        self.ring = HashRing(names)

    # -- connections ---------------------------------------------------------

    def _dial(self, address):
        host, port = parse_address(address)
        return StoreClient.connect(
            host=host, port=port, client=self.client,
            timeout=self.timeout, retries=self.retries,
            backoff=self.backoff, max_backoff=self.max_backoff)

    def _write_client(self, shard, address):
        client = shard._write_clients.get(address)
        if client is None:
            client = self._dial(address)
            shard._write_clients[address] = client
        return client

    def _shard_for(self, doc_id):
        return self._shards[self.ring.lookup(doc_id)]

    # -- routed calls --------------------------------------------------------

    def _check_open(self):
        if self._closed:
            raise ProtocolError("client is closed")

    def _call_leader(self, shard, op, **args):
        """Run one op against a shard's leader.

        Follows ``not-leader`` redirects (each hop updates the shard
        table in place) and, when the recorded leader is unreachable,
        *discovers* the new one through the shard's replicas: a replica
        answering the op outright was promoted, a replica answering
        ``not-leader`` names its current upstream. Every address is
        tried at most once per call; transport deaths
        (:class:`ConnectionLostError` / ``OSError``) move on to the
        next candidate, real command failures propagate immediately.
        """
        self._check_open()
        candidates = [shard.leader]
        probed_replicas = False
        tried = set()
        redialed = set()
        last_error = None
        while candidates:
            address = candidates.pop(0)
            if address in tried:
                continue
            tried.add(address)
            cached = address in shard._write_clients
            try:
                client = self._write_client(shard, address)
                result = getattr(client, op)(**args)
            except NotLeaderError as exc:
                last_error = exc
                if exc.leader and str(exc.leader) not in tried:
                    candidates.insert(0, str(exc.leader))
            except (ConnectionError, ConnectionLostError, OSError) as exc:
                last_error = exc
                shard.invalidate(address)
                if cached and address not in redialed:
                    # the *pooled* connection died (leader restarted,
                    # idle socket reaped) — the node itself may be
                    # fine: one fresh dial before writing it off
                    redialed.add(address)
                    tried.discard(address)
                    candidates.insert(0, address)
            else:
                shard.leader = address   # confirmed by the answer
                return result
            if not candidates and not probed_replicas:
                probed_replicas = True
                candidates.extend(a for a in shard.replicas
                                  if a not in tried)
        if isinstance(last_error, NotLeaderError):
            raise last_error
        raise ClusterError(
            "no reachable leader for shard {!r} (tried {})".format(
                shard.name, ", ".join(sorted(tried)))) from last_error

    def _call_read(self, shard, op, **args):
        """Run a read: round-robin across the shard's replicas, leader
        as the fallback (and the only target when fan-out is off)."""
        self._check_open()
        if not (self.read_replicas and shard.replicas):
            return self._call_leader(shard, op, **args)
        turn = shard._read_turn % len(shard.replicas)
        order = shard.replicas[turn:] + shard.replicas[:turn]
        shard._read_turn += 1
        for address in order:
            if shard.cooling_down(address):
                continue
            client = shard._replica_clients.get(address)
            try:
                if client is None:
                    client = self._dial(address)
                    shard._replica_clients[address] = client
                return getattr(client, op)(**args)
            except (ConnectionError, ConnectionLostError, OSError):
                # only a dead node moves the read on (and sits out a
                # cooldown, so steady-state reads stop paying its
                # connect-and-retry bill); a command failure (unknown
                # document, bad path) is the answer and propagates — a
                # lagging replica raising it is exactly the staleness
                # read fan-out trades away
                shard.invalidate(address, cooldown=REPLICA_COOLDOWN_S)
        return self._call_leader(shard, op, **args)

    # -- the client surface ---------------------------------------------------

    def shard_of(self, doc_id):
        """Name of the shard ``doc_id`` hashes to (introspection)."""
        return self.ring.lookup(doc_id)

    def open(self, doc_id, xml):
        return self._call_leader(self._shard_for(doc_id), "open",
                                 doc_id=doc_id, xml=xml)

    def submit(self, doc_id, pul, client=None):
        return self._call_leader(self._shard_for(doc_id), "submit",
                                 doc_id=doc_id, pul=pul, client=client)

    def submit_xquery(self, doc_id, query, client=None):
        return self._call_leader(self._shard_for(doc_id),
                                 "submit_xquery", doc_id=doc_id,
                                 query=query, client=client)

    def flush(self, doc_id):
        return self._call_leader(self._shard_for(doc_id), "flush",
                                 doc_id=doc_id)

    def discard(self, doc_id):
        return self._call_leader(self._shard_for(doc_id), "discard",
                                 doc_id=doc_id)

    def text(self, doc_id):
        return self._call_read(self._shard_for(doc_id), "text",
                               doc_id=doc_id)

    def query(self, doc_id, path):
        return self._call_read(self._shard_for(doc_id), "query",
                               doc_id=doc_id, path=path)

    def stats(self, doc_id=None):
        if doc_id is not None:
            return self._call_read(self._shard_for(doc_id), "stats",
                                   doc_id=doc_id)
        merged = []
        for shard in self._shards.values():
            merged.extend(self._call_read(shard, "stats")["stats"])
        return {"stats": merged}

    def docs(self):
        """Union of every shard's resident documents."""
        seen = set()
        for shard in self._shards.values():
            seen.update(self._call_read(shard, "docs")["docs"])
        return {"docs": sorted(seen)}

    def flush_all(self):
        """Flush every shard; merges the per-shard summaries."""
        batches = 0
        ops = 0
        results = []
        for shard in self._shards.values():
            outcome = self._call_leader(shard, "flush_all")
            batches += outcome["batches"]
            ops += outcome["ops"]
            results.extend(outcome["results"])
        return {"batches": batches, "ops": ops, "results": results}

    # -- CDC & bulk ETL (see repro.cluster.feed / repro.etl) ------------------

    def _shard_for_all(self, doc_ids, op):
        """The single shard owning every id in ``doc_ids`` (document
        subscriptions are per-shard streams; spanning two leaders
        would interleave two unrelated epochs)."""
        names = {self.ring.lookup(doc_id) for doc_id in doc_ids}
        if len(names) != 1:
            raise ClusterError(
                "{} spans shards {} — open one subscription per "
                "shard".format(op, ", ".join(sorted(names))))
        return self._shards[names.pop()]

    def subscribe(self, doc_ids, from_token=None, decode=True,
                  subscriber=None, wait_s=5.0, max_events=None):
        """Stream change events for ``doc_ids`` (all on one shard) as
        a generator — the routed counterpart of
        :meth:`StoreClient.subscribe`, following leader redirects
        between polls."""
        doc_ids = ([doc_ids] if isinstance(doc_ids, str)
                   else list(doc_ids))
        shard = self._shard_for_all(doc_ids, "subscribe")
        token = from_token
        while True:
            page = self._call_leader(
                shard, "subscribe_once", from_token=token,
                doc_ids=doc_ids, decode=decode, max_events=max_events,
                wait_s=wait_s, subscriber=subscriber)
            token = page["token"]
            for event in page["events"]:
                yield event

    def unsubscribe(self, subscriber, doc_ids):
        """Drop a named subscriber on the shard serving ``doc_ids``."""
        doc_ids = ([doc_ids] if isinstance(doc_ids, str)
                   else list(doc_ids))
        return self._call_leader(
            self._shard_for_all(doc_ids, "unsubscribe"),
            "unsubscribe", subscriber=subscriber)

    def bulk_import(self, docs):
        """Route one ETL chunk across the ring: documents are grouped
        by owning shard and each group loads atomically on its leader
        (per-shard atomicity — the cross-shard chunk is not)."""
        groups = {}
        for doc in docs:
            doc_id = doc["doc_id"] if isinstance(doc, dict) else doc[0]
            groups.setdefault(self.ring.lookup(doc_id),
                              []).append(doc)
        loaded, nodes, doc_ids = 0, 0, []
        for name, group in groups.items():
            result = self._call_leader(self._shards[name],
                                       "bulk_import", docs=group)
            loaded += result["loaded"]
            nodes += result["nodes"]
            doc_ids.extend(result["doc_ids"])
        return {"loaded": loaded, "nodes": nodes, "doc_ids": doc_ids,
                "shards": len(groups)}

    @property
    def closed(self):
        return self._closed

    def close(self):
        """Close every pooled connection (idempotent). Calls after
        this raise ``ProtocolError("client is closed")``."""
        self._closed = True
        for shard in self._shards.values():
            shard.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self):
        return "ClusterClient({} shards, read_replicas={})".format(
            len(self._shards), self.read_replicas)
