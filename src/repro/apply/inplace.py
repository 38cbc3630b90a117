"""In-place batch application with incremental label maintenance.

The store's original hot path rebuilt the whole resident document per
batch: the streaming evaluator walked every node into an event stream,
transformed it, and materialized a fresh tree — O(document) work with
large constants for batches that touch a handful of subtrees. This module
applies the reduced batch PUL *to the resident tree itself* (the
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

Atomicity is the delicate part. The streaming path was atomic by
construction (the old tree survived a failed batch untouched); in-place
application mutates the published tree, and two XQUF dynamic checks fire
*after* mutation (duplicate-attribute detection and the id-index
rebuild). The applier therefore journals an undo snapshot of every node
an operation can touch — each target and its parent, a set linear in the
batch, not the document — and restores structure, parent pointers and the
root on any failure before re-raising, so the "no partial state is ever
published" contract of :meth:`DocumentStore.flush` holds unchanged.

Structural edits the per-site repair cannot localize (replacing or
deleting the document root) fall back to a whole-tree
:meth:`~repro.labeling.scheme.ContainmentLabeling.sync`, which is always
valid, just not O(touched).
"""

from __future__ import annotations

from collections import namedtuple

from repro.errors import DocumentError
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


class _Snapshot:
    """Undo record of one node's mutable state."""

    __slots__ = ("node", "name", "value", "children", "attributes",
                 "parent")

    def __init__(self, node):
        self.node = node
        self.name = node.name
        self.value = node.value
        self.children = list(node.children)
        self.attributes = list(node.attributes)
        self.parent = node.parent

    def restore(self):
        node = self.node
        node.name = self.name
        node.value = self.value
        node.children[:] = self.children
        for child in node.children:
            child.parent = node
        node.attributes[:] = self.attributes
        for attr in node.attributes:
            attr.parent = node
        node.parent = self.parent


#: What a reduced batch touches on the document it is about to be
#: applied to: ``targets`` — the resolved target node of every
#: operation, in PUL order; ``site_ids`` — anchor sites (elements whose
#: child/attribute lists change), first-seen order; ``removed_ids`` —
#: every node of every subtree leaving the document; ``touched_ids`` —
#: rename/replace-value targets, first-seen order; ``needs_sync`` — a
#: parent-site operation hit the root, so no labeled anchor exists and
#: repairs cannot be localized.
Footprint = namedtuple(
    "Footprint", "targets site_ids removed_ids touched_ids needs_sync")


def classify(document, pul):
    """Classify ``pul`` against the *pre-batch* ``document`` — the one
    site classification shared by the live apply, the catch-up replay
    and the index delta; returns its :class:`Footprint`. Operations
    whose target is absent are skipped:
    :func:`~repro.pul.semantics.apply_pul` resolves every target
    before mutating anything, so the miss raises there with the tree
    still untouched."""
    targets = []
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
        targets.append(target)
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
    return Footprint(targets, site_ids, removed_ids, touched_ids,
                     needs_sync)


def apply_batch_in_place(document, labeling, pul, preserve_ids=True):
    """Make ``pul`` effective on ``document`` in place, maintaining
    ``labeling`` incrementally.

    Returns ``"incremental"`` when the labeling was repaired per-site, or
    ``"sync"`` when a root-level structural change forced a whole-tree
    sync. On any application failure the document is restored to its
    pre-call structure (and the labeling is untouched) before the
    exception propagates.
    """
    footprint = classify(document, pul)
    snapshots = {}
    for target in footprint.targets:
        for node in (target, target.parent):
            if node is not None and id(node) not in snapshots:
                snapshots[id(node)] = _Snapshot(node)
    root = document.root
    try:
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
            # anchor: localized repair is impossible, re-derive index
            # and labels wholesale
            document.rebuild_index()
            labeling.sync(document)
            return "sync"
        runs, repoint = site_runs
        # duplicate detection first, exactly like rebuild_index: a clash
        # must raise before any fresh id is burned, or a failed batch
        # would advance the allocator and diverge later assignments
        seen = set()
        for __, __, __, run in runs:
            for tree in run:
                for node in tree.iter_subtree():
                    node_id = node.node_id
                    if node_id is None:
                        continue
                    if node_id in document or node_id in seen:
                        raise DocumentError(
                            "duplicate node id: {}".format(node_id))
                    seen.add(node_id)
        _register_runs(document, runs)
    except Exception:
        for snapshot in snapshots.values():
            snapshot.restore()
        document.root = root
        # the failure may have left the id index mid-maintenance;
        # re-derive it from the restored tree (every node keeps its
        # original id, so no fresh identifiers are burned)
        document.rebuild_index()
        raise
    try:
        for left, right, site_label, run in runs:
            labeling.assign_run(site_label, run, left, right)
        for site in repoint:
            labeling.repoint_children(site)
    except Exception:
        # the batch is committed (tree and index maintained); a label
        # repair that cannot be localized is finished wholesale instead
        # of unwinding a successfully applied batch
        labeling.sync(document)
        return "sync"
    return "incremental"


def replay_batch(document, labeling, pul):
    """Re-apply an already-committed reduced batch to a lagging copy's
    *tree*, maintaining the id index but no labels.

    The MVCC store hands each retired published version back to the
    writer as the next flush's working copy; before the writer can
    mutate it, the copy must catch up by one version — exactly the
    reduced batch that produced the version it lags behind. This is
    :func:`apply_batch_in_place` stripped to its structural core: no
    undo journal (the batch already committed once, it cannot fail
    here), no duplicate pre-scan, and **no label maintenance** — the
    catch-up's caller copies the published version's immutable
    id-keyed label map wholesale instead of re-deriving per-site
    codes, which is the costly half of a live apply. ``labeling`` is
    the copy's own *pre-batch* labels, used only to order the
    insertion runs: run collection sees the same tree, the same labels
    and the same reduced PUL as the live apply did, so the runs — and
    therefore the fresh ids — come out identical (a replay allocating
    different ids would desynchronize every later batch's targets).
    """
    footprint = classify(document, pul)
    root = document.root
    apply_pul(document, pul, check=False, preserve_ids=True,
              reindex=False)
    site_runs = None
    if not footprint.needs_sync and document.root is root:
        document.forget_ids(footprint.removed_ids)
        site_runs = _site_runs(document, labeling, footprint.site_ids)
    if site_runs is None:
        # the live apply fell back to a wholesale reindex, whose
        # document-order id assignment a rebuild here reproduces exactly
        document.rebuild_index()
        return
    _register_runs(document, site_runs[0])


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
    assigned in run order above every identifier they carry."""
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
