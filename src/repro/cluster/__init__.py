"""Replication cluster: a WAL-shipping leader and its read replicas.

The multi-node layer of the serving system. The *leader* accepts
writes exactly like a single-node durable store; its write-ahead log
doubles as the replication stream
(:class:`~repro.cluster.feed.ReplicationSource` numbers every synced
record and serves bounded backlog reads). *Replicas*
(:class:`~repro.cluster.replica.ReplicaStore` fed by
:class:`~repro.cluster.sync.ReplicaSync`) bootstrap from a paged
state export, apply the streamed records through the PR 3 replay machinery
and serve reads; writes bounce with the typed ``not-leader`` error,
which carries the leader's address. There is no routing client: a
client dials the node it means with
:class:`~repro.api.client.StoreClient` — writes to the leader, reads to
any node. Manual failover is ``promote``: a caught-up replica becomes
a leader (its own WAL already holds everything it acknowledged) and
starts a fresh stream epoch its followers re-bootstrap from; clients
re-dial it.

Protocol surface: every follower reads the stream through one method,
:meth:`ReplicationSource.read` (the ``subscribe`` op, anchored by the
resume tokens of :mod:`repro.cluster.tokens`), and bootstraps from
paged ``export`` in state form. A consumer that wants documents rather
than events is a WAL-less :class:`ReplicaStore` driven by hand the way
:class:`ReplicaSync` drives one. The cluster adds only ``promote`` and
the replication block in extended ``stats`` (see
``src/repro/api/README.md``).
"""

from repro.cluster.feed import DEFAULT_BACKLOG, ReplicationSource
from repro.cluster.replica import ReplicaStore
from repro.cluster.sync import ReplicaSync, parse_address

__all__ = [
    "DEFAULT_BACKLOG",
    "ReplicaStore",
    "ReplicaSync",
    "ReplicationSource",
    "parse_address",
]
