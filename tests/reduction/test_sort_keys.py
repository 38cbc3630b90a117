"""Which reductions serialize parameters.

Only the canonical form (Definition 9) orders operations by ``<lex``,
the serialization of their parameters. The reduction ``∆^O`` and the
deterministic reduction ``∆^H`` (Definitions 7 and 8) only iterate in
document order, where operations of one kind never tie, so they never
call ``param_key`` — counted here by wrapping every definition of it —
while ``canonical_form`` does, its output pinned on generated PULs.
"""

import contextlib
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pul.ops as ops_module
from repro.labeling import ContainmentLabeling
from repro.pul.serialize import pul_to_xml
from repro.reasoning import DocumentOracle
from repro.reduction import canonical_form, reduce_deterministic, reduce_pul
from repro.workloads import generate_pul, generate_xmark
from repro.workloads.pulgen import generate_reducible_pul

from tests.strategies import applicable_puls, documents


@contextlib.contextmanager
def counting_param_keys():
    """Count every ``param_key`` call of every operation class inside
    the block; yields the list the calls are appended to."""
    calls = []
    patched = []
    for value in vars(ops_module).values():
        if isinstance(value, type) and \
                issubclass(value, ops_module.UpdateOperation) and \
                "param_key" in vars(value):
            original = vars(value)["param_key"]

            def counted(self, _original=original):
                calls.append(self.op_name)
                return _original(self)

            patched.append((value, original))
            value.param_key = counted
    try:
        yield calls
    finally:
        for cls, original in patched:
            cls.param_key = original


def test_the_counter_sees_every_kind():
    """The wrapper is in place for each operation kind's own
    ``param_key`` (the tree, value and name parameters)."""
    document = generate_xmark(scale=0.02, seed=1)
    pul = generate_pul(document, 60, seed=1)
    with counting_param_keys() as calls:
        for op in pul:
            op.param_key()
    assert sorted(set(calls)) == sorted({op.op_name for op in pul})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reductions_serialize_no_parameter(data):
    document = data.draw(documents(max_depth=2, max_children=2))
    pul = data.draw(applicable_puls(document, max_ops=6))
    oracle = DocumentOracle(document)
    with counting_param_keys() as calls:
        reduce_pul(pul, oracle)
        reduce_deterministic(pul, oracle)
    assert calls == []


def _generated(seed, kind):
    document = generate_xmark(scale=0.02, seed=seed)
    labeling = ContainmentLabeling().build(document)
    if kind == "plain":
        return generate_pul(document, 300, seed=seed, labeling=labeling)
    return generate_reducible_pul(document, 300, hit_ratio=0.5, seed=seed,
                                  labeling=labeling)


#: (seed, PUL kind) -> reducer -> (reduced size, sha256 prefix of
#: ``pul_to_xml`` of the result), as the reducers gave them while every
#: sort key still carried the serialized parameters
_PINNED = {
    (1, "plain"): {
        "reduce_pul": (235, "91750b7e5cb20d94"),
        "reduce_deterministic": (235, "0b7afd331d7f8364"),
        "canonical_form": (235, "9e6d1a99ac9f4ad1")},
    (1, "reducible"): {
        "reduce_pul": (60, "cc0ae7d58b302a71"),
        "reduce_deterministic": (60, "cc0ae7d58b302a71"),
        "canonical_form": (60, "284c40b85bf52b81")},
    (2, "plain"): {
        "reduce_pul": (222, "200161e4207e907c"),
        "reduce_deterministic": (222, "4d7b5ad083606559"),
        "canonical_form": (222, "5ff6871bbd3b0210")},
    (2, "reducible"): {
        "reduce_pul": (88, "97176ec6a763d96a"),
        "reduce_deterministic": (88, "97176ec6a763d96a"),
        "canonical_form": (88, "549ad7327db3473c")},
    (3, "plain"): {
        "reduce_pul": (229, "325a1111968b93f7"),
        "reduce_deterministic": (229, "1f0299ff8897bc6d"),
        "canonical_form": (229, "998932a205afc14f")},
    (3, "reducible"): {
        "reduce_pul": (111, "3831f1f41e5359e1"),
        "reduce_deterministic": (111, "817b67196287427e"),
        "canonical_form": (111, "ee3b854691392be2")},
}


@pytest.mark.parametrize("seed, kind", sorted(_PINNED))
def test_generated_puls_reduce_to_the_pinned_outputs(seed, kind):
    """Over generated PULs carrying their labels: the two reductions
    call ``param_key`` zero times, the canonical form calls it, and all
    three give the outputs pinned above, operation order included."""
    pul = _generated(seed, kind)
    for reducer in (reduce_pul, reduce_deterministic, canonical_form):
        with counting_param_keys() as calls:
            reduced = reducer(pul)
        if reducer is canonical_form:
            assert calls
        else:
            assert calls == []
        digest = hashlib.sha256(
            pul_to_xml(reduced).encode()).hexdigest()[:16]
        assert (len(reduced), digest) == _PINNED[seed, kind][
            reducer.__name__]
