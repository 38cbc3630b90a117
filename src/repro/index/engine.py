"""Interval execution of path steps over index buckets.

Every primitive here is a sorted merge over start codes, replacing a
tree walk with work proportional to the touched buckets. A bucket holds
node ids in start-code order (= document order); a node's codes come
from the version's labeling and its parent from the version's document
(:meth:`~repro.xdm.document.Document.parents_of`), each read off its
id-indexed column:

* **child / attribute steps** scan one name bucket and keep the ids
  whose parent is a context node — the parent column is the child
  axis, no tree access needed;
* **descendant steps** are the paper's containment test as a sweep:
  contexts are ``(start, end)`` intervals sorted by start, candidates
  come in start order, and a candidate lies strictly inside a context
  iff ``ctx.start < cand.start < ctx.end`` (intervals nest or are
  disjoint), so one pass keeps each candidate whose start is below the
  largest end of the contexts it has passed;
* **descendant-attribute steps** test containment of the *owner's*
  interval, mirroring the walker's behaviour of yielding attributes of
  proper-descendant elements (a context node's own attributes are never
  selected by ``//@name``). Attribute start codes sit directly inside
  their owner's interval, so bucket order keeps owner start codes
  non-decreasing and the same sweep applies.

The virtual document root (the walker's ``_Root``) is the interval
``(0, None)`` — no code is 0, since no code is empty, and ``None``
stands for +infinity, so it strictly contains every node.

Exists/compare predicates are order-independent node filters and are
delegated to the walker's ``_apply_predicate`` — with one fast path:
``[@name = "literal"]`` against the attribute-value bucket. Positional
predicates are never handled here; the planner routes any path that
contains one to the walker wholesale, because their semantics depend
on the walker's accumulation order.
"""

from __future__ import annotations

from itertools import compress

from repro.xquery import ast
from repro.xquery.xpath import _apply_predicate, _evaluate_step, _Root

#: the virtual root's interval: contains every labeled node strictly
ROOT_INTERVAL = (0, None)


def node_interval(node, labeling):
    """``(start, end)`` of ``node``'s codes; the virtual root is
    ``(0, None)``."""
    if isinstance(node, _Root):
        return ROOT_INTERVAL
    return labeling.label_of(node.node_id)


def context_ids(context):
    """Parent-match keys of the context: the virtual root matches the
    root element, whose parent id is ``None``."""
    return {None if isinstance(node, _Root) else node.node_id
            for node in context}


def child_scan(bucket, parent_ids, document):
    """Ids of ``bucket`` whose parent in ``document`` is a context node,
    in bucket (= document) order."""
    return list(compress(bucket, map(parent_ids.__contains__,
                                     document.parents_of(bucket))))


def descendant_sweep(intervals, ids, starts):
    """One-pass sorted-interval containment merge.

    ``intervals`` are ``(start, end)`` pairs sorted by start; ``ids``
    are node ids and ``starts`` their test codes, non-decreasing, in
    the same order. Returns the ids whose test code lies strictly
    inside at least one interval, preserving their order. ``None``
    ends are +infinity (the virtual root).
    """
    kept = []
    position = 0
    total = len(intervals)
    best_end = None     # max finite end among passed intervals
    unbounded = False   # a passed interval reaches +infinity
    for node_id, start in zip(ids, starts):
        while position < total and intervals[position][0] < start:
            passed_end = intervals[position][1]
            if passed_end is None:
                unbounded = True
            elif best_end is None or passed_end > best_end:
                best_end = passed_end
            position += 1
        if unbounded or (best_end is not None and start < best_end):
            kept.append(node_id)
    return kept


def execute_index_step(step, context, index, labeling, document):
    """Run one supported step over the index; returns the selected
    nodes in document order. The planner guarantees the step shape is
    one :func:`supported_bucket` said yes to."""
    bucket = supported_bucket(step, index)
    if step.axis in (ast.CHILD, ast.ATTRIBUTE):
        ids = child_scan(bucket, context_ids(context), document)
    else:
        intervals = sorted(node_interval(node, labeling)
                           for node in context)
        key = labeling.order_key()
        if step.axis == ast.DESCENDANT_ATTRIBUTE:
            # an attribute is tested by its owner's start code
            starts = map(key, document.parents_of(bucket))
        else:
            starts = map(key, bucket)
        ids = descendant_sweep(intervals, bucket, starts)
    return list(document.nodes_of(ids))


def supported_bucket(step, index):
    """The bucket a step can be answered from, or ``None`` when the
    step needs the walker (wildcards, ``node()`` tests)."""
    if step.axis in (ast.ATTRIBUTE, ast.DESCENDANT_ATTRIBUTE):
        if step.name is None:
            return None
        return index.attributes.get(step.name, [])
    if step.test == ast.TEXT_TEST:
        return index.texts
    if step.test == ast.ELEMENT_TEST and step.name is not None:
        return index.elements.get(step.name, [])
    return None


def value_filter_ids(predicate, index, document):
    """Owner ids satisfying ``[@name = "literal"]`` via the
    attribute-value bucket and ``document``'s parent map, or ``None``
    when the predicate does not have that shape (the walker filter
    applies instead)."""
    if not isinstance(predicate, ast.ComparePredicate):
        return None
    path = predicate.path
    if path.absolute or len(path.steps) != 1:
        return None
    inner = path.steps[0]
    if (inner.axis != ast.ATTRIBUTE or inner.name is None
            or inner.predicates):
        return None
    bucket = index.values.get((inner.name, predicate.literal), ())
    return set(map(document.parent_id, bucket))


def apply_predicates(step, nodes, index, document):
    """Apply a step's (non-positional) predicates to index-selected
    nodes of ``document``; returns ``(nodes, strategies)`` where
    ``strategies`` names how each predicate ran (for the explain
    output)."""
    strategies = []
    for predicate in step.predicates:
        ids = value_filter_ids(predicate, index, document)
        if ids is not None:
            nodes = [node for node in nodes if node.node_id in ids]
            strategies.append("attr-value-index")
        else:
            nodes = _apply_predicate(predicate, nodes)
            strategies.append("walker")
    return nodes, strategies


def walk_step(step, context):
    """The walker's own step evaluation (predicates included)."""
    return _evaluate_step(step, context)
