"""In-place batch application with incremental label maintenance.

The store's original hot path rebuilt the whole resident document per
batch: the streaming evaluator walked every node into an event stream,
transformed it, and materialized a fresh tree — O(document) work with
large constants for batches that touch a handful of subtrees. This module
applies the reduced batch PUL *to the tree it is handed* (the
:func:`~repro.pul.semantics.apply_pul` semantics, which the differential
suite proves byte- and id-identical to the streaming path) and then
repairs the containment labeling only around the touched sites:

* labels of removed subtrees are forgotten (their ids stay burned);
* runs of freshly inserted siblings receive codes generated strictly
  between the surviving neighbor codes
  (:meth:`~repro.labeling.scheme.ContainmentLabeling.assign_run` — the
  update-tolerance property is preserved: existing codes are never
  rewritten);
* sibling pointers are re-derived for exactly the parents whose child
  lists changed.

The batch is classified once (:func:`classify`) against the tree it is
about to change; the resulting :class:`Footprint` names every node
whose child list, attribute list, name or value the batch changes. The
store uses that one footprint three times: to path-copy the published
version above those nodes
(:meth:`repro.store.store.StoredDocument.checkout`), for this module's
apply and label repair, and for the index delta
(:meth:`repro.index.structural.DocumentIndex.derive`).

Atomicity is not this module's job. The store never hands it a tree a
reader, log or follower can see: the writer applies on its private path
copy and publishes it only when the whole batch went through. Two XQUF
dynamic checks fire *after* mutation (duplicate-attribute detection and
a duplicate node id at registration); when either raises, the copy is
left mid-mutation and the caller abandons it — the published version's
lists, names and values were never touched, and the parent pointers
the copy moved are pointed back.

One check fires *before* anything is logged or copied:
:func:`check_nesting` refuses a batch whose insertion would nest
elements deeper than :data:`~repro.xdm.parser.MAX_ELEMENT_NESTING`,
the bound a parsed document already keeps — the label slot walk and
the serializer recurse once per level.

Structural edits the per-site repair cannot localize (replacing or
deleting the document root) fall back to a whole-tree
:meth:`~repro.labeling.scheme.ContainmentLabeling.sync`, which is always
valid, just not O(touched).
"""

from __future__ import annotations

from collections import namedtuple

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
from repro.pul.semantics import apply_pul
from repro.xdm.parser import MAX_ELEMENT_NESTING

#: operations whose label repair anchors at the *target* element
_TARGET_SITE_OPS = (InsertInto.op_name, InsertIntoAsFirst.op_name,
                    InsertIntoAsLast.op_name, ReplaceChildren.op_name,
                    InsertAttributes.op_name)

#: operations whose label repair anchors at the target's *parent*
_PARENT_SITE_OPS = (InsertBefore.op_name, InsertAfter.op_name,
                    ReplaceNode.op_name, Delete.op_name)

#: operations that remove the target's subtree from the document
_REMOVING_OPS = (Delete.op_name, ReplaceNode.op_name)

#: operations that change the target's own name or value in place
_VALUE_OPS = (Rename.op_name, ReplaceValue.op_name)


#: What a reduced batch touches on the document it is about to be
#: applied to: ``site_ids`` — anchor sites (elements whose
#: child/attribute lists change), first-seen order; ``removed_ids`` —
#: every node of every subtree leaving the document; ``touched_ids`` —
#: rename/replace-value targets, first-seen order; ``needs_sync`` — a
#: parent-site operation hit the root, so no labeled anchor exists and
#: repairs cannot be localized.
Footprint = namedtuple(
    "Footprint", "site_ids removed_ids touched_ids needs_sync")


def classify(document, pul):
    """Classify ``pul`` against the *pre-batch* ``document`` — the one
    site classification shared by the store's path copy, the apply and
    the index delta; returns its :class:`Footprint`. Operations
    whose target is absent are skipped:
    :func:`~repro.pul.semantics.apply_pul` resolves every target
    before mutating anything, so the miss raises there with the tree
    still untouched."""
    site_ids = []
    seen_sites = set()
    removed_ids = []
    touched_ids = []
    seen_touched = set()
    needs_sync = False
    for op in pul:
        target = document.find(op.target)
        if target is None:
            continue
        kind = op.op_name
        site = None
        if kind in _TARGET_SITE_OPS:
            site = target
        elif kind in _PARENT_SITE_OPS:
            site = target.parent
            if site is None:
                needs_sync = True  # root replaced/deleted/flanked
        if site is not None and site.node_id not in seen_sites:
            seen_sites.add(site.node_id)
            site_ids.append(site.node_id)
        if kind in _REMOVING_OPS:
            removed_ids.extend(n.node_id for n in target.iter_subtree())
        elif kind == ReplaceChildren.op_name:
            for child in target.children:
                removed_ids.extend(n.node_id
                                   for n in child.iter_subtree())
        elif kind in _VALUE_OPS and target.node_id not in seen_touched:
            seen_touched.add(target.node_id)
            touched_ids.append(target.node_id)
    return Footprint(site_ids, removed_ids, touched_ids, needs_sync)


def check_nesting(pul, labeling):
    """Refuse ``pul`` when one of its insertions would put an element
    deeper than :data:`~repro.xdm.parser.MAX_ELEMENT_NESTING` (the root
    element is at depth 1). The target's label level places the new
    trees' parent, and each tree adds its own element height. An
    operation whose target has no label is left to the apply, which
    refuses an absent target anyway."""
    for op in pul:
        if not op.trees:
            continue
        label = labeling.find(op.target)
        if label is None:
            continue
        # the parent's depth: the target (level + 1) for the
        # target-site operations, the target's parent (level) else
        parent_depth = label.level + (op.op_name in _TARGET_SITE_OPS)
        height = max(map(_element_height, op.trees))
        if parent_depth + height > MAX_ELEMENT_NESTING:
            raise NotApplicableError(
                "{} on node {} would nest elements {} deep, past the "
                "bound of {}".format(op.op_name, op.target,
                                     parent_depth + height,
                                     MAX_ELEMENT_NESTING))


def _element_height(tree):
    """Levels of nested elements in ``tree``: 0 for a text or an
    attribute node, 1 for an element with no element children."""
    height = 0
    level = [tree] if tree.is_element else []
    while level:
        height += 1
        level = [child for node in level for child in node.children
                 if child.is_element]
    return height


def apply_batch_in_place(document, labeling, pul, preserve_ids=True,
                         footprint=None):
    """Make ``pul`` effective on ``document`` in place, maintaining
    ``labeling`` incrementally: :func:`replay_batch`'s structural
    routine, then label repair around the touched sites. ``footprint``
    is the batch's :func:`classify` result when the caller already has
    it (same ids on a path copy of the classified tree).

    Returns ``"incremental"`` when the labeling was repaired per-site, or
    ``"sync"`` when a root-level structural change forced a whole-tree
    sync. A failure leaves both arguments mid-mutation: they are the
    writer's private pair and the caller abandons them.
    """
    site_runs = replay_batch(document, labeling, pul,
                             preserve_ids=preserve_ids,
                             footprint=footprint)
    if site_runs is None:
        labeling.sync(document)
        return "sync"
    runs, repoint = site_runs
    try:
        for left, right, site_label, run in runs:
            labeling.assign_run(site_label, run, left, right)
        for site in repoint:
            labeling.repoint_children(site)
    except Exception:
        # the tree and its id index are complete; a label repair that
        # cannot be localized is finished wholesale instead of failing
        # a batch that applied
        labeling.sync(document)
        return "sync"
    return "incremental"


def replay_batch(document, labeling, pul, preserve_ids=True,
                 footprint=None):
    """Apply the reduced batch ``pul`` to ``document``'s *tree*,
    maintaining the id index; of ``labeling`` only the labels of removed
    nodes are forgotten. Returns the ``(runs, sites)`` still to be
    labeled, or ``None`` when the change could not be localized and the
    id index was rebuilt wholesale.

    This is the structural half of :func:`apply_batch_in_place`, which
    labels the returned runs. On its own it replays a batch's tree
    effect (``benchmarks/e2e/layers.py`` times it that way).
    ``labeling`` holds the *pre-batch* labels, which delimit the
    insertion runs: the same tree, labels and reduced PUL always yield
    the same runs, and therefore the same fresh ids.
    """
    if footprint is None:
        footprint = classify(document, pul)
    root = document.root
    apply_pul(document, pul, check=False, preserve_ids=preserve_ids,
              reindex=False)
    site_runs = None
    if not footprint.needs_sync and document.root is root:
        document.forget_ids(footprint.removed_ids)
        for node_id in footprint.removed_ids:
            labeling.forget(node_id)
        site_runs = _site_runs(document, labeling, footprint.site_ids)
    if site_runs is None:
        # root-level structural change, or a site with no labeled
        # anchor: re-derive the id index wholesale — document-order id
        # assignment, which every replay of this batch reproduces
        document.rebuild_index()
        return None
    _register_runs(document, site_runs[0])
    return site_runs


def _site_runs(document, labeling, site_ids):
    """Collect the unlabeled runs under every surviving site; returns
    ``(runs, sites)``, or ``None`` when a site has no labeled anchor
    (it was created by this very batch — shouldn't survive reduction,
    but a wholesale repair is always correct).

    Fresh identifiers must come out in document order across every
    insertion site — exactly what a whole-document rebuild_index would
    assign, including the nested-site interleavings a per-site walk
    would get wrong. Runs occupy disjoint code gaps and start-code
    order is document order, so sorting by each run's left bound
    reproduces the rebuild's scan order; within a run, tree order.
    """
    runs = []
    sites = []
    for site_id in site_ids:
        site = document.find(site_id)
        if site is None:
            continue  # the site itself was removed by a sibling op
        site_label = labeling.find(site_id)
        if site_label is None:
            return None
        _collect_runs(labeling, site, site_label, runs)
        sites.append(site)
    runs.sort(key=lambda entry: entry[0])
    return runs, sites


def _register_runs(document, runs):
    """Enter the runs' subtrees into the id index, fresh identifiers
    assigned in run order above every identifier they carry; an
    identifier already in the index raises (``register_tree``)."""
    highest = -1
    for __, __, __, run in runs:
        for tree in run:
            for node in tree.iter_subtree():
                if node.node_id is not None and node.node_id > highest:
                    highest = node.node_id
    document.allocator.reserve_at_least(highest + 1)
    for __, __, __, run in runs:
        for tree in run:
            document.register_tree(tree)


def _collect_runs(labeling, site, site_label, runs):
    """Append ``site``'s unlabeled runs to ``runs`` as ``(left_code,
    right_code, site_label, nodes)`` — consecutive label-less attributes
    and children, bounded by the neighboring existing codes."""
    run = []
    left = site_label.start
    for item in list(site.attributes) + list(site.children):
        label = (labeling.find(item.node_id)
                 if item.node_id is not None else None)
        if label is None:
            run.append(item)
            continue
        if run:
            runs.append((left, label.start, site_label, run))
            run = []
        left = label.end
    if run:
        runs.append((left, site_label.end, site_label, run))
