"""The store benchmarks offer the store's two reduction backends only."""

import importlib.util
import os

import pytest

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "benchmarks")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_BENCHMARKS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", [
    "bench_durability", "bench_replication", "bench_server_concurrency",
    "bench_store_throughput"])
def test_process_backend_is_an_invalid_choice(name, capsys):
    with pytest.raises(SystemExit) as excinfo:
        _load(name).main(["--backend", "process"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'process'" in capsys.readouterr().err
