"""PUL application semantics (Section 2.2).

The judgement ``D |= ∆ ~> D'`` is realized by applying the operations in
five stages, which encode the precedence prescribed by the XQuery Update
Facility:

1. ``ins↓``, ``insA``, ``repV``, ``ren``
2. ``ins←``, ``ins→``, ``ins↙``, ``ins↘``
3. ``repN``
4. ``repC``
5. ``del``

Within a stage the order is not prescribed; the observable nondeterminism
is (a) the placement of ``ins↓`` blocks and (b) the relative order of the
inserted groups of multiple same-variant insertions on the same target.
:func:`apply_pul` resolves both deterministically (``ins↓`` as-first,
groups in PUL order); :func:`obtainable_set` enumerates every outcome —
the set ``O(∆, D)`` of Definition 2 / Example 3.

Operations are applied *by node object*: targets, and their parents, are
resolved before any mutation, so an operation whose target was meanwhile
detached (e.g. by a replacement higher up) still executes, but on an
invisible tree — exactly the "overridden operation" behaviour the
reduction rules exploit.
"""

from __future__ import annotations

from repro.errors import NotApplicableError
from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertBefore,
    InsertInto,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    Rename,
    ReplaceChildren,
    ReplaceNode,
    ReplaceValue,
)
from repro.xdm.compare import canonical_string
from repro.xdm.document import Document, IdAllocator

#: stage -> the op stage attribute is defined on the classes themselves
STAGES = (1, 2, 3, 4, 5)


class Scope:
    """Mutable holder of the forest being updated.

    Holds one tree for whole-document application, or the parameter forest
    of an operation when aggregation applies a PUL *inside* another
    operation's parameter (rule D6). ``parents`` maps the id of every
    node an operation may resolve to that node's parent (``None`` at top
    level): XQUF never moves an existing node, so a parent resolved
    before the first operation holds through the last. ``removed``
    collects the ids of the nodes the operations detach.
    """

    def __init__(self, roots, parents):
        self.roots = list(roots)
        self.parents = parents
        self.removed = set()

    def parent(self, node):
        return self.parents.get(node.node_id)

    def replace_top(self, node, trees):
        index = self.roots.index(node)
        self.roots[index:index + 1] = trees

    def contains_top(self, node):
        return any(root is node for root in self.roots)


def _forest_maps(roots):
    """The id index and the parent map (id -> parent node) of the nodes
    with an id in the trees ``roots``, from one walk."""
    index = {}
    parents = {}
    for root in roots:
        for node, parent in root.iter_with_parents():
            if node.node_id is not None:
                index[node.node_id] = node
                parents[node.node_id] = parent
    return index, parents


def _detach(scope, node):
    """Take ``node`` out of the forest; a node already taken out (an
    overridden deletion) stays as it is."""
    scope.removed.add(node.node_id)
    parent = scope.parent(node)
    if parent is None:
        if scope.contains_top(node):
            scope.replace_top(node, [])
        return
    siblings = parent.attributes if node.is_attribute else parent.children
    for index, item in enumerate(siblings):
        if item is node:
            del siblings[index]
            break
    _settle(parent)


def _settle(element):
    """Give back the lists an edit of ``element`` emptied: a node with
    nothing to hold holds the shared ``()``."""
    if not element.children:
        element.children = ()
    if not element.attributes:
        element.attributes = ()


def _insert_siblings(scope, anchor, trees, after):
    parent = scope.parent(anchor)
    if parent is None:
        index = scope.roots.index(anchor) + (1 if after else 0)
        scope.roots[index:index] = trees
        return
    index = parent.children.index(anchor) + (1 if after else 0)
    for offset, tree in enumerate(trees):
        parent.insert_child(index + offset, tree)


def apply_to_node(scope, node, op, gap=None, preserve_ids=False):
    """Apply ``op`` to its resolved target ``node`` within ``scope``.

    ``gap`` selects the children gap for ``ins↓`` (``None`` = as first).
    Parameter trees are deep-copied, so operations stay reusable;
    ``preserve_ids`` keeps the identifiers carried by the parameter trees
    (aggregation needs them — later PULs refer to those nodes).

    Dispatch is on the operation's wire name: the insertion variants are
    subclasses of each other, so ``isinstance`` chains would misroute.
    """
    trees = [t.deep_copy(keep_ids=preserve_ids) for t in op.trees]
    kind = op.op_name
    if kind == InsertInto.op_name:
        index = 0 if gap is None else gap
        for offset, tree in enumerate(trees):
            node.insert_child(index + offset, tree)
    elif kind == InsertAttributes.op_name:
        for tree in trees:
            node.append_attribute(tree)
    elif kind == ReplaceValue.op_name:
        node.value = op.value
    elif kind == Rename.op_name:
        node.name = op.name
    elif kind == InsertBefore.op_name:
        _insert_siblings(scope, node, trees, after=False)
    elif kind == InsertAfter.op_name:
        _insert_siblings(scope, node, trees, after=True)
    elif kind == InsertIntoAsFirst.op_name:
        for offset, tree in enumerate(trees):
            node.insert_child(offset, tree)
    elif kind == InsertIntoAsLast.op_name:
        for tree in trees:
            node.append_child(tree)
    elif kind == ReplaceNode.op_name:
        scope.removed.add(node.node_id)
        parent = scope.parent(node)
        if parent is None:
            scope.replace_top(node, trees)
        elif node.is_attribute:
            position = parent.attributes.index(node)
            parent.attributes[position:position + 1] = trees
            _settle(parent)
        else:
            position = parent.children.index(node)
            del parent.children[position]
            for offset, tree in enumerate(trees):
                parent.insert_child(position + offset, tree)
            _settle(parent)
    elif kind == ReplaceChildren.op_name:
        scope.removed.update(child.node_id for child in node.children)
        node.children = ()
        for tree in trees:
            node.append_child(tree)
    elif kind == Delete.op_name:
        _detach(scope, node)
    else:
        raise NotApplicableError(
            "unknown operation: {!r}".format(op))


def _staged(pul):
    """Operations of ``pul`` grouped by stage, PUL order preserved."""
    stages = {stage: [] for stage in STAGES}
    for op in pul:
        stages[op.stage].append(op)
    return stages


def _attribute_checked_elements(pul, targets, scope):
    """The elements whose attribute sets ``pul`` modifies — ``insA``
    targets plus the owners of renamed or replaced attributes."""
    elements = {}
    for op in pul:
        node = targets[op.target]
        if isinstance(op, InsertAttributes):
            elements[id(node)] = node
        elif isinstance(op, (Rename, ReplaceNode)) and node.is_attribute:
            owner = scope.parent(node)
            if owner is not None:
                elements[id(owner)] = owner
    return list(elements.values())


def _check_attribute_uniqueness(elements, document, removed):
    """The XQUF dynamic error on duplicate attribute names (the error
    integration's conflict type 2 guards against), checked on every
    element whose attribute set the PUL modified and that is still part
    of the result — matching the streaming evaluator exactly. The
    document's parent map still holds the parents from before the PUL,
    which no operation changed; an element is out of the result when it
    or an ancestor was detached (``removed``)."""
    root = document.root
    for element in elements:
        node_id = element.node_id
        while node_id not in removed:
            above = document.parent_id(node_id)
            if above is None:
                break
            node_id = above
        if node_id in removed or root is None or node_id != root.node_id:
            continue  # detached by a replacement/deletion higher up
        names = [attr.name for attr in element.attributes]
        if len(names) != len(set(names)):
            raise NotApplicableError(
                "duplicate attribute on element {}: {}".format(
                    element.node_id, sorted(names)))


def _resolved_scope(document, target_ids):
    """The targets ``target_ids`` name in ``document`` (id -> node) and
    the scope over its tree that knows their parents: both resolved
    before any mutation."""
    targets = {}
    parents = {}
    for target_id in target_ids:
        if target_id not in targets:
            node = targets[target_id] = document.get(target_id)
            parents[target_id] = document.parent(node)
    return targets, Scope([document.root], parents)


def apply_pul(document, pul, check=True, preserve_ids=False,
              reindex=True):
    """Apply ``pul`` to ``document`` in place, deterministically.

    ``ins↓`` inserts as first (the stage-10 deterministic choice of
    Definition 8); same-variant groups apply in PUL order. New nodes get
    fresh identifiers in document order (via
    :meth:`~repro.xdm.document.Document.rebuild_index`), unless
    ``preserve_ids`` keeps identifiers already present in the parameter
    trees (the producer-assigned ids of the aggregation scenario).
    ``reindex=False`` skips the index rebuild entirely — the caller takes
    over id assignment and index maintenance (the in-place batch applier
    does it incrementally, reproducing the same document-order fresh-id
    assignment).
    """
    if check:
        pul.require_applicable(document)
    targets, scope = _resolved_scope(document, (op.target for op in pul))
    checked = _attribute_checked_elements(pul, targets, scope)
    stages = _staged(pul)
    for stage in STAGES:
        for op in stages[stage]:
            apply_to_node(scope, targets[op.target], op,
                          preserve_ids=preserve_ids)
    document.root = scope.roots[0] if scope.roots else None
    _check_attribute_uniqueness(checked, document, scope.removed)
    if reindex:
        document.rebuild_index()
    return document


def apply_operation(document, op, gap=None, check=True, preserve_ids=False):
    """Apply a single operation to ``document`` in place."""
    if check:
        op.require_applicable(document)
    targets, scope = _resolved_scope(document, [op.target])
    apply_to_node(scope, targets[op.target], op, gap=gap,
                  preserve_ids=preserve_ids)
    document.root = scope.roots[0] if scope.roots else None
    document.rebuild_index()
    return document


def apply_to_forest(roots, operations, preserve_ids=True):
    """Apply ``operations`` (five-stage order) to a detached forest whose
    nodes carry ids; returns the resulting list of top-level trees.

    This is the fragment-level application used by aggregation rule D6,
    where a later PUL updates nodes *inside the parameter* of an earlier
    operation. Parameter identifiers are preserved by default so that
    still-later PULs can keep referring to them.
    """
    index, parents = _forest_maps(roots)
    scope = Scope(roots, parents)
    stages = {stage: [] for stage in STAGES}
    for op in operations:
        stages[op.stage].append(op)
    for stage in STAGES:
        for op in stages[stage]:
            node = index.get(op.target)
            if node is None:
                raise NotApplicableError(
                    "target {} not found in fragment".format(op.target))
            apply_to_node(scope, node, op, preserve_ids=preserve_ids)
    return scope.roots


# -- obtainable documents -----------------------------------------------------


class ObtainableLimitExceeded(NotApplicableError):
    """Raised when O(∆, D) enumeration exceeds the requested cap."""


def _choice_groups(pul):
    """Split the PUL into an ordered list of same-stage groups; each group
    gathers the operations sharing (variant, target), the unit whose
    internal order is nondeterministic."""
    stages = _staged(pul)
    groups = []
    for stage in STAGES:
        seen = {}
        for op in stages[stage]:
            key = (op.op_name, op.target)
            if key in seen:
                groups[seen[key]].append(op)
            else:
                seen[key] = len(groups)
                groups.append([op])
    return groups


def _branching(group):
    head = group[0]
    if isinstance(head, InsertInto):
        return True
    return len(group) > 1 and head.op_class.value == "i" and \
        not isinstance(head, InsertAttributes)


def _copy_forest_state(roots):
    """A scope over a deep copy of the trees ``roots``, and its id
    index."""
    new_roots = [root.deep_copy(keep_ids=True) for root in roots]
    index, parents = _forest_maps(new_roots)
    return Scope(new_roots, parents), index


def obtainable_set(document, pul, limit=20000, with_ids=False, check=True,
                   preserve_ids=False):
    """Enumerate ``O(∆, D)``: every document obtainable by applying ``pul``
    to ``document`` (Definition 2 extended to PULs).

    Returns a dict mapping the canonical string of each distinct outcome to
    one representative :class:`Document`. Comparison is value-based (new
    nodes carry no identity until applied); pass ``with_ids=True`` to make
    original-node identity significant.

    ``preserve_ids`` keeps producer-assigned identifiers on parameter
    trees (pass it together with ``with_ids`` for identity-sensitive
    comparisons).

    Raises :class:`ObtainableLimitExceeded` past ``limit`` outcomes
    explored.
    """
    if check:
        pul.require_applicable(document)
    groups = _choice_groups(pul)
    results = {}
    # outcome documents continue the source allocator, so identifiers of
    # removed nodes are never resurrected (the never-reused discipline)
    id_floor = document.allocator.next_value

    def finish(scope):
        if len(results) >= limit:
            raise ObtainableLimitExceeded(
                "more than {} obtainable documents".format(limit))
        if scope.roots:
            doc = Document(allocator=IdAllocator(start=id_floor))
            doc.root = scope.roots[0]
            doc.rebuild_index()
            key = canonical_string(doc.root, with_ids=with_ids)
        else:
            doc = Document(allocator=IdAllocator(start=id_floor))
            key = ""
        results.setdefault(key, doc)

    def explore(scope, index, group_number, remaining):
        if remaining is None:
            if group_number == len(groups):
                finish(scope)
                return
            group = groups[group_number]
            if not _branching(group):
                for op in group:
                    apply_to_node(scope, index[op.target], op,
                                  preserve_ids=preserve_ids)
                explore(scope, index, group_number + 1, None)
                return
            explore(scope, index, group_number, list(group))
            return
        if not remaining:
            explore(scope, index, group_number + 1, None)
            return
        for position, op in enumerate(remaining):
            rest = remaining[:position] + remaining[position + 1:]
            if isinstance(op, InsertInto):
                target = index[op.target]
                gap_count = len(target.children) + 1
                for gap in range(gap_count):
                    branch, new_index = _copy_forest_state(scope.roots)
                    apply_to_node(branch, new_index[op.target], op,
                                  gap=gap, preserve_ids=preserve_ids)
                    explore(branch, new_index, group_number, rest)
            else:
                branch, new_index = _copy_forest_state(scope.roots)
                apply_to_node(branch, new_index[op.target], op,
                              preserve_ids=preserve_ids)
                explore(branch, new_index, group_number, rest)

    explore(*_copy_forest_state([document.root]), 0, None)
    return results
