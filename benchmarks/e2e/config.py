"""Sizes and rates of the four workloads.

Every count is a constant or a constant times ``--seconds``: the
operation sequence is a function of ``(workload, seed, seconds)`` alone,
never of how fast the machine happens to be (no run-time calibration).
The per-second constants were sized on the 2-core reference box so that
the timed phase lasts about ``--seconds`` seconds there; a faster
program simply finishes the same work sooner.
"""

#: the seed whose input hashes are pinned in ``pins.json``
DEFAULT_SEED = 1
#: must equal ``run_seconds`` of BENCHMARK.json (the pinned size)
DEFAULT_SECONDS = 15
#: untimed warm-up, as a share of the timed operations
WARMUP_SHARE = 0.05
#: ``--smoke`` runs every workload at this share of ``--seconds``
SMOKE_SHARE = 0.05
#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: restarts of the restart probe; ``recovery_s`` is their median
PROBE_RESTARTS = 3
#: layer replay and oracle re-runs use every N-th input
SAMPLE_EVERY = 20
REASONING = {
    "scale": 0.015,           # XMark scale: ~800 nodes
    "pool": 12,               # distinct jobs per family, cycled
    "jobs_per_s": 200,
    "reduce_ops": 48, "hit_ratio": 0.3,
    "agg_puls": 8, "agg_ops": 6, "new_node_ratio": 0.5,
    "int_puls": 6, "int_ops": 8, "conflict_fraction": 0.5,
    # every 5th job applies its result: the slowest fifth of a slice's
    # jobs are then the applied ones and p90 falls in the middle of
    # their cluster, not on the cliff between applied and plain jobs
    # (every 8th put it there)
    "apply_every": 5,
}

DURABLE = {
    "scale": 0.013,           # ~700 nodes per document
    "families": 4,            # distinct documents; the last is append-heavy
    "copies": 12,             # resident copies of each
    "rounds_per_s": 4.2,      # x 48 documents = flushes per second
    "ops_per_client": 5, "clients": 2, "threads": 2,
    # generated operations target nodes at least this deep: no seed
    # deletes a whole region, so documents of all seeds stay comparable
    "min_depth": 3,
    "snapshots": 9,           # compactions per run (sets K)
    # one restart restores 48 documents and replays the log's tail: it
    # takes as long as the other workloads' three together
    "restarts": 1,
}

READS = {
    "scale": 0.0095,          # ~500 nodes per document
    "distinct": 40, "copies": 4, "needles": 3,
    "requests_per_s": 3200,
    "connections": 2, "depth": 4, "zipf_s": 1.0,
    # request mix, per cent
    "mix": (("selective", 40), ("child", 25), ("attr", 15),
            ("dense", 10), ("walker", 5), ("text", 5)),
    # the restart probe logs this many writes to each distinct document
    "restart_writes": 5,
}

MIXED = {
    "scale": 0.011, "docs": 40, "needles": 3,
    "rate_per_s": 300,        # the open-loop schedule (see README)
    "write_share": 0.2, "zipf_s": 1.0,
    # compactions per run: few enough that most slices see none, so the
    # slice-median p90 is the write latency, not the compaction stall
    "snapshots": 1,
    "restarts": 3,            # ``recovery_s`` is their median
    # the schedule was not kept when the generator itself issued more
    # than 1% of the run's operations later than this; the timed phase
    # is then repeated; the last of ``attempts`` is reported regardless
    "late_limit_ms": 5.0, "attempts": 3,
}
