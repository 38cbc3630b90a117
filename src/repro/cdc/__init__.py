"""Change-data-capture: the replication feed as a public surface.

:mod:`repro.cluster` treats the write-ahead log as replication
transport. This package turns that numbered, epoch-fenced stream into
the one follower surface: replicas (raw records, replayed one by one)
and downstream consumers (decoded, filtered events) speak the same
``subscribe`` / ``export`` ops:

- :mod:`repro.cdc.tokens` — opaque, checksummed resume tokens binding
  a stream epoch to a log sequence;
- :mod:`repro.cdc.feed` — :class:`ChangeFeed`, the subscription view
  over a :class:`~repro.cluster.feed.ReplicationSource`: per-document
  filters, decoded or raw delivery, typed lag/epoch errors;
- :mod:`repro.cdc.mirror` — :class:`DocumentMirror`, an idempotent
  consumer that rebuilds byte-identical documents from raw events
  (the reference subscriber used by tests and benchmarks).
"""

from repro.cdc.feed import ChangeFeed
from repro.cdc.mirror import DocumentMirror
from repro.cdc.tokens import decode_token, encode_token

__all__ = [
    "ChangeFeed",
    "DocumentMirror",
    "decode_token",
    "encode_token",
]
