"""Every script under ``examples/`` runs to completion.

Each one is executed as ``__main__``, the way ``python examples/X.py``
runs it; the examples assert their own claims (strategies that must
agree, copies that must converge), so an exception here is a claim
that no longer holds.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples")
    .glob("*.py"))


def test_the_examples_are_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
