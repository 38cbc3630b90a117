"""The load is a function of the seed, and edits to it are caught."""

import json

import pytest

import config
import gen

SMALL = config.DEFAULT_SECONDS * config.SMOKE_SHARE


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first, sha_first, __ = gen.load_inputs(workload, 5, SMALL,
                                           use_cache=False)
    again, sha_again, __ = gen.load_inputs(workload, 5, SMALL,
                                           use_cache=False)
    other, sha_other, __ = gen.load_inputs(workload, 6, SMALL,
                                           use_cache=False)
    assert sha_first == sha_again
    assert first == again
    assert sha_other != sha_first
    assert first["timed"] == other["timed"]      # sizes never vary


def test_inputs_are_wire_format_only():
    inputs, __, __g = gen.load_inputs("durable_writes", 5, SMALL,
                                      use_cache=False)
    json.dumps(inputs)                           # plain data
    assert inputs["docs"][0].startswith("<site>")
    client, wire = inputs["rounds"][0][0][0]
    assert wire.startswith("<pul")


def test_a_changed_load_fails_loudly(tmp_path, monkeypatch):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps(
        {gen.pin_name("reasoning_batch", 5, SMALL): "0" * 64}))
    monkeypatch.setattr(gen, "PINS_PATH", str(pins))
    with pytest.raises(gen.PinMismatch):
        gen.load_inputs("reasoning_batch", 5, SMALL, use_cache=False)


def test_default_seed_is_pinned_for_every_workload():
    pins = gen.load_pins()
    for workload in gen.GENERATORS:
        assert gen.pin_name(workload, config.DEFAULT_SEED,
                            config.DEFAULT_SECONDS) in pins


def test_cache_returns_what_was_generated(tmp_path, monkeypatch):
    monkeypatch.setattr(gen, "OUT_DIR", str(tmp_path))
    fresh, sha_fresh, __ = gen.load_inputs("indexed_reads", 5, SMALL)
    cached, sha_cached, __ = gen.load_inputs("indexed_reads", 5, SMALL)
    assert (tmp_path / "cache").is_dir()
    assert sha_fresh == sha_cached and fresh == cached
