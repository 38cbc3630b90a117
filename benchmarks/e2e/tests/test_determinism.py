"""Same seed, same counts: the per-layer counts of ``durable_writes``
repeat exactly from run to run."""

import config
import gen
import harness
import wl_durable
from spans import Tracer

SMALL = config.DEFAULT_SECONDS * config.SMOKE_SHARE
COUNTS = ("wal_bytes_per_op", "labeling.full_relabels",
          "labeling.incremental_relabels", "store.ops_per_flush")


def traced_counts(tmp_path, name):
    inputs, sha, __ = gen.load_inputs("durable_writes", 5, SMALL,
                                      use_cache=False)
    options = harness.Options("durable_writes", 5, SMALL, trace=True,
                              smoke=True, out_dir=str(tmp_path / name))
    try:
        options.start_probe()
        result = wl_durable.run(inputs, options, Tracer())
    finally:
        options.cleanup()
    assert result.correct, result.mismatches
    return sha, {key: result.metrics[key][0] for key in COUNTS}


def test_counts_repeat_exactly(tmp_path):
    sha_a, first = traced_counts(tmp_path, "a")
    sha_b, second = traced_counts(tmp_path, "b")
    assert sha_a == sha_b
    assert first == second
    assert first["wal_bytes_per_op"] > 0
