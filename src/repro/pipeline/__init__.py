"""The store's sharded reduction step.

A flushed batch is sharded into structurally independent partitions
(containment intervals of the extended labels), the shards are reduced
by a :class:`ParallelReducer` (``thread`` or ``serial`` backend) and
merged back through the aggregation engine:
``shard_pul → ParallelReducer.reduce_shards → merge_shards``. The result
equals the sequential ``reduce_deterministic`` of the whole batch, a
contract the property suite checks differentially.
"""

from repro.pipeline.merge import merge_shards
from repro.pipeline.parallel import ParallelReducer
from repro.pipeline.shard import partition_targets, shard_pul

__all__ = [
    "ParallelReducer",
    "merge_shards",
    "partition_targets",
    "shard_pul",
]
