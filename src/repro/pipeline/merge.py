"""Shard-result merging through the aggregation engine.

Reduced shards target disjoint sets of original-document nodes, and the
identifiers of their parameter trees come from disjoint producer bands, so
feeding them to :func:`repro.aggregation.aggregate` in shard order can
never trigger a cross-record rule: the aggregate is exactly the union of
the shard operations, assembled with the same machinery (and the same
invariant checks) the sequential executor uses. Going through the engine —
rather than naive concatenation — means a sharding bug that *does* leave
related targets in different shards surfaces as a rule application here,
which :func:`merge_shards` turns into a hard error.
"""

from __future__ import annotations

from repro.aggregation import aggregate
from repro.errors import ReproError


def merge_shards(shards):
    """Merge reduced shard PULs (in shard order) into a single PUL.

    The merge verifies the shard independence contract: the merged PUL
    must contain exactly the union of the shard operations — nothing
    collapsed, nothing rewritten. One shard has no other to be
    independent of and is returned as it is.
    """
    shards = list(shards)
    if not shards:
        raise ReproError("cannot merge zero shards")
    if len(shards) == 1:
        return shards[0]
    merged = aggregate(shards)
    expected = sum(len(shard) for shard in shards)
    if len(merged) != expected:
        raise ReproError(
            "shard merge changed the operation count ({} -> {}): "
            "shards were not independent".format(expected, len(merged)))
    return merged
