"""Durability for the document store: WAL, snapshots, recovery.

The paper's PULs are serializable, reducible update units, which makes
them the natural write-ahead-log granule: replaying a stream of reduced
batch PULs through the incremental-relabel machinery reconstructs the
resident state deterministically. The package splits into

* :mod:`.wal` — CRC-framed, fsync-batched record framing (torn-tail
  tolerant);
* :mod:`.snapshot` — exact serialization of resident document state
  (the document's id table: each id's kind, name, value and two
  integer containment codes, plus allocator position and watermark),
  the one payload form of snapshots, ``open`` records and state
  exports; a restore rebuilds the tree from the nesting of the codes'
  intervals;
* :mod:`.recovery` — policies, the generation-numbered directory with
  snapshot compaction (one document's payload held at a time), state
  loading, and the stateless replay oracle recovery is verified
  against.
"""

from repro.store.durability.recovery import (
    DEFAULT_SNAPSHOT_EVERY,
    DurabilityManager,
    DurabilityPolicy,
    LoadedState,
    RecoveryReport,
    decode_batch,
    load_durable_state,
    replay_oracle,
)
from repro.store.durability.snapshot import (
    document_payload,
    restore_document,
)
from repro.store.durability.wal import (
    WalWriter,
    encode_record,
    scan_records,
    scan_wal,
    truncate_torn_tail,
)

__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "DurabilityManager",
    "DurabilityPolicy",
    "LoadedState",
    "RecoveryReport",
    "WalWriter",
    "decode_batch",
    "document_payload",
    "encode_record",
    "load_durable_state",
    "replay_oracle",
    "restore_document",
    "scan_records",
    "scan_wal",
    "truncate_torn_tail",
]
