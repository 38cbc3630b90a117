"""Evaluation of the abbreviated-XPath subset over documents.

Node-set semantics: every path evaluates to a duplicate-free list of nodes
in document order.
"""

from __future__ import annotations

from repro.errors import QueryEvaluationError
from repro.xquery import ast
from repro.xdm.navigation import document_position


def evaluate_path(path, document=None, context=None, labeling=None):
    """Evaluate ``path`` and return the selected nodes in document order.

    ``context`` is the list of context nodes for relative paths; absolute
    paths require ``document``. When ``labeling`` is given the final
    sort orders by label start code (see :func:`document_order`).
    """
    return document_order(_select(path, document, context), labeling)


def _select(path, document=None, context=None):
    """The nodes ``path`` selects, duplicate-free, in the walker's
    accumulation order. Predicates use it as it is: they only ask
    whether anything, or anything equal to a literal, was selected, so
    they never sort — and never re-derive tree positions through parent
    pointers, which a retired store version does not keep (the rule of
    :mod:`repro.store.versions`)."""
    if path.absolute:
        if document is None or document.root is None:
            raise QueryEvaluationError(
                "absolute path requires a document with a root")
        current = [_Root(document.root)]
    else:
        if context is None:
            if document is None or document.root is None:
                raise QueryEvaluationError(
                    "relative path requires context nodes")
            current = [_Root(document.root)]
        else:
            current = list(context)
    for step in path.steps:
        current = _evaluate_step(step, current)
        if not current:
            return []
    return current


class _Root:
    """A virtual document node above the root element, so that the leading
    ``/`` step can match the root element by name."""

    __slots__ = ("element",)
    is_element = True
    is_attribute = False
    is_text = False

    def __init__(self, element):
        self.element = element

    @property
    def children(self):
        return [self.element]

    @property
    def attributes(self):
        return []


def _evaluate_step(step, context):
    results = []
    seen = set()
    for node in context:
        for candidate in _axis_nodes(step, node):
            if _test_matches(step, candidate) and id(candidate) not in seen:
                seen.add(id(candidate))
                results.append(candidate)
    if not step.predicates:
        return results
    # positional predicates apply per context node in XPath; this subset
    # applies them to the whole step result per context node
    filtered = results
    for predicate in step.predicates:
        filtered = _apply_predicate(predicate, filtered)
    return filtered


def _axis_nodes(step, node):
    if step.axis == ast.ATTRIBUTE:
        if getattr(node, "is_element", False):
            yield from node.attributes
        return
    if step.axis == ast.CHILD:
        yield from node.children
        return
    # the `//` abbreviation: descendant-or-self then child
    stack = list(node.children)
    while stack:
        current = stack.pop(0)
        yield current
        if current.is_element:
            stack = list(current.children) + stack
            for attr in current.attributes:
                yield attr


def _test_matches(step, node):
    if isinstance(node, _Root):
        return False
    if step.axis in (ast.ATTRIBUTE, ast.DESCENDANT_ATTRIBUTE):
        if not node.is_attribute:
            return False
        return step.name is None or node.name == step.name
    if step.test == ast.TEXT_TEST:
        return node.is_text
    if node.is_attribute:
        return False
    if not node.is_element:
        return False
    return step.name is None or node.name == step.name


def _apply_predicate(predicate, nodes):
    if isinstance(predicate, ast.PositionPredicate):
        if predicate.last:
            return nodes[-1:]
        index = predicate.index
        if index is None or index < 1 or index > len(nodes):
            return []
        return [nodes[index - 1]]
    if isinstance(predicate, ast.ExistsPredicate):
        return [node for node in nodes
                if _select(predicate.path, context=[node])]
    if isinstance(predicate, ast.ComparePredicate):
        kept = []
        for node in nodes:
            selected = _select(predicate.path, context=[node])
            if any(item.string_value() == predicate.literal
                   for item in selected):
                kept.append(node)
        return kept
    raise QueryEvaluationError(
        "unknown predicate: {!r}".format(predicate))


def document_order(nodes, labeling=None):
    """Sort ``nodes`` into document order.

    With a ``labeling``, order by label *start code* — the paper's
    order: start codes are unique, compare lexicographically, and
    enumerate the document — which is O(1) per comparison and the
    primitive the index engine's bucket order shares. Without one (or
    when a node is unlabeled, e.g. the compiler's source fragments),
    fall back to re-deriving tree positions.
    """
    if labeling is not None:
        keys = {}
        for node in nodes:
            label = labeling.find(getattr(node, "node_id", None))
            if label is None:
                keys = None
                break
            keys[id(node)] = label.start
        if keys is not None:
            return sorted(nodes, key=lambda node: keys[id(node)])
    return sorted(nodes, key=document_position)
