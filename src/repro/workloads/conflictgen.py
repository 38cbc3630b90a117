"""Conflict-controlled integration workloads (Figure 6e).

The paper's integration experiment uses 10 PULs where half of the
operations are involved in conflicts, conflicts contain an average of
5 operations, only 1/5 of the conflicts are solved through the removal of
operations in other conflicts (cascades), and the remaining conflicts are
equally distributed over the conflict types.

``generate_conflicting_puls`` reproduces those knobs: it plants conflict
groups of a chosen size over distinct target nodes, spreading the members
across the PULs, plants cascades as type-5 conflicts whose overridden
operations already belong to another conflict, and fills the rest with
conflict-free operations kept away from every planted delete's subtree
(so no accidental extra conflicts appear).
"""

from __future__ import annotations

import random

from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertInto,
    InsertIntoAsLast,
    Rename,
    ReplaceValue,
)
from repro.pul.pul import PUL
from repro.xdm.node import Node


def _subtree_ids(node):
    return {item.node_id for item in node.iter_subtree()}


def generate_conflicting_puls(document, pul_count=10, ops_per_pul=400,
                              conflict_fraction=0.5, ops_per_conflict=5,
                              cascade_fraction=0.2, seed=0, labeling=None):
    """Build ``pul_count`` PULs with controlled integration conflicts.

    Returns ``(puls, planted)`` — the PUL list and the number of planted
    conflict groups.
    """
    rng = random.Random(seed)
    elements = [n for n in document.nodes()
                if n.is_element and n is not document.root]
    texts = [n for n in document.nodes() if n.is_text]
    rng.shuffle(elements)
    pool = iter(elements)

    total_ops = pul_count * ops_per_pul
    conflicted_ops = int(total_ops * conflict_fraction)
    group_count = max(1, conflicted_ops // max(2, ops_per_conflict))
    cascade_count = int(group_count * cascade_fraction)

    ops_by_pul = [[] for __ in range(pul_count)]
    serial = 0
    used = set()       # targets consumed by planted groups
    forbidden = set()  # nodes under a planted delete (off limits for all)

    def spread(ops):
        nonlocal serial
        start = serial % pul_count
        for offset, op in enumerate(ops):
            ops_by_pul[(start + offset) % pul_count].append(op)
        serial += 1

    def take(subtree_free=False, with_element_child=False):
        """Next unused target element honoring the exclusion sets."""
        for candidate in pool:
            if candidate.node_id in used or \
                    candidate.node_id in forbidden:
                continue
            ids = _subtree_ids(candidate)
            if subtree_free and (ids & used or ids & forbidden):
                continue
            if with_element_child and not any(
                    child.is_element for child in candidate.children):
                continue
            return candidate
        return None

    planted = 0
    # members of one conflict group go to distinct PULs (two renames of
    # the same node inside one PUL would make it invalid), so group size
    # is capped by the number of PULs
    members = min(max(2, ops_per_conflict), pul_count)
    kinds = ("modification", "attribute", "order", "override")
    for index in range(group_count - cascade_count):
        kind = kinds[index % len(kinds)]
        target = take(subtree_free=(kind == "override"))
        if target is None:
            break
        if kind == "modification":
            ops = [Rename(target.node_id, "name{}".format(i))
                   for i in range(members)]
        elif kind == "attribute":
            ops = [InsertAttributes(
                target.node_id,
                [Node.attribute("clash", str(i))]) for i in range(members)]
        elif kind == "order":
            ops = [InsertAfter(
                target.node_id,
                [Node.element("ord{}".format(i))]) for i in range(members)]
        else:  # local override: a delete against child inserts; the
            # victims use ins↓ (not an *ordered* insert) so the group
            # yields exactly one type-4 conflict and no type-3 byproduct
            ops = [Delete(target.node_id)]
            ops.extend(InsertInto(
                target.node_id,
                [Node.element("kid{}".format(i))])
                for i in range(members - 1))
            forbidden.update(_subtree_ids(target))
        used.add(target.node_id)
        spread(ops)
        planted += 1

    # cascades: a delete on a parent (type 5 overriding the child's
    # renames) combined with a type-1 conflict on the child, so solving
    # the ancestor conflict auto-solves the descendant one
    for __ in range(cascade_count):
        parent = take(subtree_free=True, with_element_child=True)
        if parent is None:
            break
        child = next(c for c in parent.children if c.is_element)
        ops = [Delete(parent.node_id)]
        ops.extend(Rename(child.node_id, "casc{}".format(i))
                   for i in range(members - 1))
        used.update((parent.node_id, child.node_id))
        forbidden.update(_subtree_ids(parent))
        spread(ops)
        planted += 2  # one type-5 conflict plus the cascaded type-1

    # conflict-free filler: one producer each, outside every delete subtree
    filler_texts = iter([t for t in texts
                         if t.node_id not in forbidden])
    filler_elements = iter([e for e in elements
                            if e.node_id not in used
                            and e.node_id not in forbidden])
    for pul_index in range(pul_count):
        bucket = ops_by_pul[pul_index]
        while len(bucket) < ops_per_pul:
            text = next(filler_texts, None)
            if text is not None:
                bucket.append(ReplaceValue(text.node_id, "f"))
                continue
            element = next(filler_elements, None)
            if element is None:
                break
            bucket.append(InsertIntoAsLast(
                element.node_id, [Node.element("fill")]))

    puls = []
    for index, ops in enumerate(ops_by_pul):
        pul = PUL(ops, origin="producer{}".format(index))
        if labeling is not None:
            pul.attach_labels(labeling)
        puls.append(pul)
    return puls, planted
