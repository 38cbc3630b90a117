"""Interval execution of path steps over index buckets.

Every primitive here is a sorted merge over label codes, replacing a
tree walk with work proportional to the touched buckets:

* **child / attribute steps** scan one name bucket and keep the entries
  whose ``parent_id`` is a context node — the entry's parent id is the
  child axis, no tree access needed;
* **descendant steps** are the paper's containment test as a sweep:
  contexts and candidates are both sorted by start code, so one pass
  keeps each candidate whose interval is strictly inside some context
  interval (``ctx.start < cand.start`` and ``cand.end < ctx.end``);
* **descendant-attribute steps** test containment of the *owner's*
  interval, mirroring the walker's behaviour of yielding attributes of
  proper-descendant elements (a context node's own attributes are never
  selected by ``//@name``). Attribute start codes sit directly inside
  their owner's interval, so bucket order keeps owner starts
  non-decreasing and the same sweep applies.

Bucket entries are ``(start, end, node_id, parent_id)`` tuples; the
virtual document root (the walker's ``_Root``) is the interval
``("", None)`` — the empty string precedes every code and ``None``
stands for +infinity, so it strictly contains every node.

Exists/compare predicates are order-independent node filters and are
delegated to the walker's ``_apply_predicate`` — with one fast path:
``[@name = "literal"]`` against the attribute-value bucket. Positional
predicates are never handled here; the planner routes any path that
contains one to the walker wholesale, because their semantics depend
on the walker's accumulation order.
"""

from __future__ import annotations

from repro.xquery import ast
from repro.xquery.xpath import _apply_predicate, _evaluate_step, _Root

#: the virtual root's interval: contains every labeled node strictly
ROOT_INTERVAL = ("", None)


def node_interval(node, labeling):
    """``(start, end)`` of ``node``; the virtual root is ``("", None)``."""
    if isinstance(node, _Root):
        return ROOT_INTERVAL
    return labeling.label_of(node.node_id)


def context_ids(context):
    """Parent-match keys of the context: the virtual root matches the
    root element's entry, whose parent id is ``None``."""
    return {None if isinstance(node, _Root) else node.node_id
            for node in context}


def child_scan(bucket, parent_ids):
    """Entries of ``bucket`` whose parent is a context node, in bucket
    (= document) order."""
    return [entry for entry in bucket if entry[3] in parent_ids]


def descendant_sweep(intervals, entries, key=None):
    """One-pass sorted-interval containment merge.

    ``intervals`` are ``(start, end)`` pairs sorted by start;
    ``entries`` are bucket entries whose test interval — ``key(entry)``
    when given, else the entry's own ``(start, end)`` — has
    non-decreasing start. Returns the entries strictly contained in at
    least one interval, preserving entry order. ``None`` ends are
    +infinity (the virtual root).
    """
    kept = []
    position = 0
    total = len(intervals)
    best_end = None       # max finite end among passed intervals
    unbounded = False     # a passed interval reaches +infinity
    for entry in entries:
        start, end = key(entry) if key is not None else (entry[0],
                                                         entry[1])
        while position < total and intervals[position][0] < start:
            passed_end = intervals[position][1]
            if passed_end is None:
                unbounded = True
            elif best_end is None or passed_end > best_end:
                best_end = passed_end
            position += 1
        if unbounded or (best_end is not None and end is not None
                         and end < best_end):
            kept.append(entry)
    return kept


def execute_index_step(step, context, index, labeling, document):
    """Run one supported step over the index; returns the selected
    nodes in document order. The planner guarantees the step shape is
    one :func:`supported_bucket` said yes to."""
    bucket = supported_bucket(step, index)
    if step.axis in (ast.CHILD, ast.ATTRIBUTE):
        entries = child_scan(bucket, context_ids(context))
    else:
        intervals = sorted(node_interval(node, labeling)
                           for node in context)
        if step.axis == ast.DESCENDANT_ATTRIBUTE:
            labels = labeling.as_mapping()
            entries = descendant_sweep(
                intervals, bucket, key=lambda entry: labels[entry[3]])
        else:
            entries = descendant_sweep(intervals, bucket)
    return [document.get(entry[2]) for entry in entries]


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


def value_filter_ids(predicate, index):
    """Owner ids satisfying ``[@name = "literal"]`` via the
    attribute-value bucket, or ``None`` when the predicate does not
    have that shape (the walker filter applies instead)."""
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
    return {entry[3] for entry in bucket}


def apply_predicates(step, nodes, index):
    """Apply a step's (non-positional) predicates to index-selected
    nodes; returns ``(nodes, strategies)`` where ``strategies`` names
    how each predicate ran (for the explain output)."""
    strategies = []
    for predicate in step.predicates:
        ids = value_filter_ids(predicate, index)
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
