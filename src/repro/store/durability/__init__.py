"""Durability for the document store: WAL, snapshots, recovery.

The paper's PULs are serializable, reducible update units, which makes
them the natural write-ahead-log granule: replaying a stream of reduced
batch PULs through the incremental-relabel machinery reconstructs the
resident state deterministically. The package splits into

* :mod:`.wal` — CRC-framed, fsync-batched record framing (torn-tail
  tolerant);
* :mod:`.snapshot` — exact serialization of resident document state
  (tree with identifiers, allocator position, labels, watermark);
* :mod:`.recovery` — policies, the generation-numbered directory with
  snapshot compaction, state loading, and the stateless replay oracle
  recovery is verified against.
"""

from repro.store.durability.recovery import (
    DEFAULT_SNAPSHOT_EVERY,
    DurabilityManager,
    DurabilityPolicy,
    LoadedState,
    RecoveryReport,
    load_durable_state,
    replay_oracle,
)
from repro.store.durability.snapshot import (
    RestoredDocument,
    document_payload,
    restore_document,
)
from repro.store.durability.wal import (
    WalWriter,
    encode_record,
    read_single_record,
    scan_records,
    scan_wal,
    truncate_torn_tail,
    write_file_atomically,
)

__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "DurabilityManager",
    "DurabilityPolicy",
    "LoadedState",
    "RecoveryReport",
    "RestoredDocument",
    "WalWriter",
    "document_payload",
    "encode_record",
    "load_durable_state",
    "read_single_record",
    "replay_oracle",
    "restore_document",
    "scan_records",
    "scan_wal",
    "truncate_torn_tail",
    "write_file_atomically",
]
