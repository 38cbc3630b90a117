"""Per-step cost-based choice between index scans and tree walks.

The cost model is deliberately tiny — two observable numbers per step:

* **index cost**: the name bucket's size (plus the context size for
  descendant merges, which sweep both lists once);
* **walk cost**: for child/attribute axes the *exact* candidate count
  (the context nodes' child/attribute list lengths are known without
  walking); for descendant axes the document size, the upper bound of
  the subtree the walker would traverse.

The planner picks the cheaper side per step (ties go to the index),
records every decision, and the recorded plan travels with the result
— the ``explain`` protocol op and ``repro store query --explain`` show
exactly which plan served a query, and the differential suite pins
that every choice is byte-identical to the walker.

Two rules override the cost model:

* a **positional predicate anywhere in the path** routes the whole
  query to the walker: ``[n]``/``[last()]`` select by the walker's
  accumulation order, which intermediate index steps (document order)
  would legally reorder;
* a step shape the index cannot answer (wildcards, ``node()`` tests)
  walks just that step — the surrounding steps still use their
  buckets.
"""

from __future__ import annotations

from repro.index.engine import (
    apply_predicates,
    execute_index_step,
    supported_bucket,
    walk_step,
)
from repro.xquery import ast
from repro.xquery.xpath import _Root, document_order, evaluate_path


def has_positional(path):
    """True when any top-level step carries a positional predicate."""
    return any(isinstance(predicate, ast.PositionPredicate)
               for step in path.steps
               for predicate in step.predicates)


def _walk_estimate(step, context, document):
    if step.axis == ast.CHILD:
        return sum(len(node.children) for node in context)
    if step.axis == ast.ATTRIBUTE:
        return sum(len(node.attributes) for node in context)
    return len(document)


def _decide(step, context, index, document, engine):
    """One step's plan record; ``record["choice"]`` drives execution."""
    record = {"step": repr(step)}
    bucket = supported_bucket(step, index)
    if bucket is None:
        record["choice"] = "walk"
        record["reason"] = "no bucket for this step shape"
        return record, None
    walk_cost = _walk_estimate(step, context, document)
    index_cost = len(bucket)
    if step.axis in (ast.DESCENDANT, ast.DESCENDANT_ATTRIBUTE):
        index_cost += len(context)
    record["bucket"] = len(bucket)
    record["est_index"] = index_cost
    record["est_walk"] = walk_cost
    if engine == "index" or index_cost <= walk_cost:
        record["choice"] = "index-scan"
        return record, bucket
    record["choice"] = "walk"
    record["reason"] = "context fan-out below bucket size"
    return record, None


def _walker_plan(path, engine, reason):
    return {
        "engine": engine,
        "mode": "walker",
        "reason": reason,
        "steps": [{"step": repr(step), "choice": "walk"}
                  for step in path.steps],
    }


def run_query(path, document, labeling=None, index=None, engine="auto"):
    """Evaluate ``path`` and return ``(nodes, plan)``.

    ``engine`` is ``"auto"`` (cost-based, the default), ``"walk"``
    (force the tree walker) or ``"index"`` (prefer buckets wherever the
    step shape allows). Every mode returns the same nodes — the plan
    only describes how they were found.
    """
    if engine not in ("auto", "walk", "index"):
        raise ValueError("unknown query engine {!r}".format(engine))
    if engine == "walk" or index is None or labeling is None:
        reason = ("forced by caller" if engine == "walk"
                  else "no index for this version")
        plan = _walker_plan(path, engine, reason)
        return evaluate_path(path, document=document,
                             labeling=labeling), plan
    if has_positional(path):
        plan = _walker_plan(
            path, engine,
            "positional predicate selects by walker accumulation order")
        return evaluate_path(path, document=document,
                             labeling=labeling), plan
    if document.root is None:
        # the walker owns the (typed) error for rootless documents
        plan = _walker_plan(path, engine, "document has no root")
        return evaluate_path(path, document=document,
                             labeling=labeling), plan
    plan = {"engine": engine, "steps": []}
    context = [_Root(document.root)]
    indexed_steps = 0
    for step in path.steps:
        record, bucket = _decide(step, context, index, document, engine)
        plan["steps"].append(record)
        if bucket is not None:
            context = execute_index_step(step, context, index, labeling,
                                         document)
            indexed_steps += 1
            if step.predicates:
                context, strategies = apply_predicates(
                    step, context, index, document)
                record["predicates"] = strategies
        else:
            context = walk_step(step, context)
        record["out"] = len(context)
        if not context:
            break
    plan["mode"] = ("indexed" if indexed_steps == len(plan["steps"])
                    and indexed_steps else
                    "mixed" if indexed_steps else "walker")
    return document_order(context, labeling, [document.root]), plan
