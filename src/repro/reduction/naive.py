"""Reference (naive) reduction engine.

Implements Definitions 7–9 literally: at each stage, repeatedly search all
ordered operation pairs for an applicable rule and apply it; for the
canonical form, always apply the rule on the ``<p``-minimal pair
(Definition 9). Quadratic per step — kept as the executable specification
against which the optimized engine is property-tested, and as the baseline
of the reduction ablation benchmark.
"""

from __future__ import annotations

from repro.pul.ops import InsertInto, InsertIntoAsFirst
from repro.reasoning.oracle import oracle_for
from repro.reduction.rules import (
    LAST_RULE_STAGE,
    RULES_BY_STAGE,
    tree_keys,
)


def _pair_key(op1, op2, oracle):
    """``<p`` of Definition 9: document order of targets, then
    lexicographic order of serialized parameters, then of their per-tree
    serializations (equal serializations are left unordered by ``<p``)."""
    return (oracle.order_key(op1.target), op1.param_key(), tree_keys(op1),
            oracle.order_key(op2.target), op2.param_key(), tree_keys(op2))


def reduce_naive(pul, structure=None, deterministic=False, canonical=False):
    """Reduce ``pul`` by exhaustive rule search.

    ``structure`` is anything :func:`~repro.reasoning.oracle.oracle_for`
    accepts (defaults to the PUL's own labels). ``canonical`` implies the
    ``<p``-minimal application order (and stage 10); ``deterministic``
    adds stage 10 only.
    """
    oracle = oracle_for(structure if structure is not None else pul)
    ops = [op for op in pul]
    for stage in range(1, LAST_RULE_STAGE + 1):
        rules = RULES_BY_STAGE.get(stage, ())
        while True:
            applications = []
            for op1 in ops:
                for op2 in ops:
                    if op1 is op2:
                        continue
                    for rule in rules:
                        result = rule.match(op1, op2, oracle)
                        if result is not None:
                            applications.append((op1, op2, result))
            if not applications:
                break
            if canonical:
                op1, op2, result = min(
                    applications,
                    key=lambda item: _pair_key(item[0], item[1], oracle))
            else:
                op1, op2, result = applications[0]
            position = next(i for i, op in enumerate(ops) if op is op2)
            ops = [op for op in ops if op is not op1 and op is not op2]
            if result is op2:
                ops.insert(min(position, len(ops)), op2)
            else:
                ops.insert(min(position, len(ops)), result)
    if deterministic or canonical:
        ops = [InsertIntoAsFirst(op.target, [t.deep_copy()
                                             for t in op.trees])
               if isinstance(op, InsertInto) else op
               for op in ops]
    return pul.replace_operations(ops)
