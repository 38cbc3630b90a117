"""Resident multi-document update store (serving layer).

The store keeps parsed documents and their containment labelings warm
between update batches, coalesces concurrent-client PUL streams, routes
batches through the sharded reduction pipeline and maintains labels
incrementally (full-relabel fallback on code-headroom exhaustion). See
``store.py`` for the machinery, ``baseline.py`` for the stateless
differential oracle, ``durability/`` for the write-ahead log, snapshot
compaction and crash recovery, and this package's README for the
invariants. The store is served by :mod:`repro.api` and nothing else.
"""

from repro.store.baseline import StatelessBaseline
from repro.store.durability import (
    DurabilityManager,
    DurabilityPolicy,
    RecoveryReport,
    replay_oracle,
)
from repro.store.store import (
    DEFAULT_MAX_CODE_LENGTH,
    BatchResult,
    DocumentStore,
    StoredDocument,
    coalesce_batch,
)

__all__ = [
    "DEFAULT_MAX_CODE_LENGTH",
    "BatchResult",
    "DocumentStore",
    "DurabilityManager",
    "DurabilityPolicy",
    "RecoveryReport",
    "StatelessBaseline",
    "StoredDocument",
    "coalesce_batch",
    "replay_oracle",
]
