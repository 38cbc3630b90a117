"""Synthetic PUL generators.

``generate_pul`` draws operations "equally distributed among the operation
types" (Section 4.3) targeting random applicable nodes of a document,
while keeping the PUL applicable: no incompatible pairs, no duplicate
attribute names, no replacement of the root.

``generate_reducible_pul`` additionally plants reducible pairs at a
controlled rate (the reduction experiment uses "approximatively a
successful rule application every 10 operations").

``generate_sequential_puls`` builds a chain ∆1..∆n where each PUL is
applicable on the document updated by its predecessors and a controlled
fraction of operations targets nodes *inserted by earlier PULs* — the
aggregation workload of Figure 6c/6d.
"""

from __future__ import annotations

import random

from repro.errors import ReproError
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
from repro.pul.pul import PUL
from repro.pul.semantics import apply_pul
from repro.xdm.navigation import depth
from repro.xdm.node import Node

_OP_KINDS = (
    "insertBefore", "insertAfter", "insertIntoAsFirst", "insertIntoAsLast",
    "insertInto", "insertAttributes", "delete", "replaceNode",
    "replaceValue", "replaceChildren", "rename",
)


class _PulBuilder:
    """Accumulates applicability bookkeeping while drawing operations.

    ``min_depth`` restricts the target pools to nodes at least that deep
    (document root at depth 0) — the "record-local edits" workload shape
    where updates never touch the top-level structure (the shape of the
    benchmark's batches).
    """

    def __init__(self, document, rng, labeling=None, min_depth=0):
        self.document = document
        self.rng = rng
        self.labeling = labeling
        self.elements = []
        self.texts = []
        self.attributes = []
        for node in document.nodes():
            if min_depth and depth(document, node) < min_depth:
                continue
            if node.is_element:
                self.elements.append(node)
            elif node.is_text:
                self.texts.append(node)
            else:
                self.attributes.append(node)
        self.used_replace = set()   # (op_name, target) already drawn
        self.deleted = set()        # targets of delete ops
        self.attr_serial = 0
        self.ops = []

    def _fresh_tree(self, tag="new"):
        element = Node.element(tag)
        element.append_child(Node.text(
            "v{}".format(self.rng.randrange(10 ** 6))))
        return element

    def _fresh_attribute(self):
        self.attr_serial += 1
        return Node.attribute("gen{}".format(self.attr_serial),
                              str(self.rng.randrange(1000)))

    def _pick(self, pool, exclude_root=False):
        if not pool:
            return None
        for __ in range(16):
            node = self.rng.choice(pool)
            if exclude_root and node is self.document.root:
                continue
            return node
        return None

    def draw(self, kind):
        """Draw one operation of the given kind; returns None when no
        valid target can be found."""
        if kind in ("insertBefore", "insertAfter"):
            pool = self.elements + self.texts
            node = self._pick(pool, exclude_root=True)
            if node is None:
                return None
            op_class = InsertBefore if kind == "insertBefore" \
                else InsertAfter
            return op_class(node.node_id, [self._fresh_tree()])
        if kind in ("insertIntoAsFirst", "insertIntoAsLast", "insertInto"):
            node = self._pick(self.elements)
            if node is None:
                return None
            op_class = {"insertIntoAsFirst": InsertIntoAsFirst,
                        "insertIntoAsLast": InsertIntoAsLast,
                        "insertInto": InsertInto}[kind]
            return op_class(node.node_id, [self._fresh_tree()])
        if kind == "insertAttributes":
            node = self._pick(self.elements)
            if node is None:
                return None
            return InsertAttributes(node.node_id,
                                    [self._fresh_attribute()])
        if kind == "delete":
            node = self._pick(self.elements + self.texts + self.attributes,
                              exclude_root=True)
            if node is None:
                return None
            self.deleted.add(node.node_id)
            return Delete(node.node_id)
        if kind == "replaceNode":
            node = self._pick(self.elements + self.texts,
                              exclude_root=True)
            if node is None or ("replaceNode", node.node_id) in \
                    self.used_replace:
                return None
            self.used_replace.add(("replaceNode", node.node_id))
            return ReplaceNode(node.node_id, [self._fresh_tree()])
        if kind == "replaceValue":
            pool = self.texts + self.attributes
            if not pool:
                return None
            node = self._pick(pool)
            if ("replaceValue", node.node_id) in self.used_replace:
                return None
            self.used_replace.add(("replaceValue", node.node_id))
            return ReplaceValue(node.node_id,
                                "rv{}".format(self.rng.randrange(10 ** 6)))
        if kind == "replaceChildren":
            node = self._pick(self.elements)
            if node is None or ("replaceChildren", node.node_id) in \
                    self.used_replace:
                return None
            self.used_replace.add(("replaceChildren", node.node_id))
            return ReplaceChildren(node.node_id,
                                   "rc{}".format(self.rng.randrange(1000)))
        if kind == "rename":
            pool = self.elements + self.attributes
            node = self._pick(pool, exclude_root=False)
            if node is None or ("rename", node.node_id) in \
                    self.used_replace:
                return None
            self.used_replace.add(("rename", node.node_id))
            return Rename(node.node_id,
                          "rn{}".format(self.rng.randrange(10 ** 6)))
        raise ValueError("unknown op kind: {}".format(kind))

    def build(self, origin=None):
        pul = PUL(self.ops, origin=origin)
        if self.labeling is not None:
            pul.attach_labels(self.labeling)
        return pul


def generate_pul(document, size, seed=0, labeling=None, origin=None,
                 min_depth=0):
    """A PUL of ``size`` operations, evenly mixed over the 11 primitives,
    applicable on ``document``. ``min_depth > 0`` keeps every target at
    least that deep (record-local edits; see :class:`_PulBuilder`)."""
    rng = random.Random(seed)
    builder = _PulBuilder(document, rng, labeling=labeling,
                          min_depth=min_depth)
    _fill(builder, size)
    rng.shuffle(builder.ops)
    return builder.build(origin=origin)


def _fill(builder, size):
    """Draw operations round-robin over the kinds until ``size`` is
    reached; on a successful draw the attempt count equals the operation
    count, so the kind sequence matches the historical generator. Bails
    out when the (possibly ``min_depth``-filtered) pools cannot yield the
    requested mix instead of spinning forever."""
    kinds = list(_OP_KINDS)
    attempts = 0
    limit = 16 * (size + len(kinds))
    while len(builder.ops) < size:
        if attempts >= limit:
            raise ReproError(
                "cannot draw {} applicable operations: the target pools "
                "are too small ({} elements, {} texts, {} attributes "
                "after filtering)".format(
                    size, len(builder.elements), len(builder.texts),
                    len(builder.attributes)))
        kind = kinds[attempts % len(kinds)]
        attempts += 1
        op = builder.draw(kind)
        if op is not None:
            builder.ops.append(op)


_REDUCIBLE_RECIPES = ("override-del", "override-desc", "collapse-insert",
                      "repn-before", "into-first")


def generate_reducible_pul(document, size, hit_ratio=0.1, seed=0,
                           labeling=None, origin=None):
    """A PUL of ``size`` operations where about ``hit_ratio * size``
    reduction-rule applications succeed (planted reducible pairs)."""
    rng = random.Random(seed)
    builder = _PulBuilder(document, rng, labeling=labeling)
    pairs = int(size * hit_ratio)
    for index in range(pairs):
        recipe = _REDUCIBLE_RECIPES[index % len(_REDUCIBLE_RECIPES)]
        _plant_pair(builder, recipe, rng)
    _fill(builder, size)
    rng.shuffle(builder.ops)
    return builder.build(origin=origin)


def _plant_pair(builder, recipe, rng):
    """Append a pair of operations a Figure 2 rule collapses."""
    if recipe == "override-del":
        node = builder._pick(builder.elements, exclude_root=True)
        if node is None:
            return
        if ("rename", node.node_id) not in builder.used_replace:
            builder.used_replace.add(("rename", node.node_id))
            builder.ops.append(Rename(node.node_id, "dead"))
        builder.ops.append(Delete(node.node_id))                 # rule O1
        builder.deleted.add(node.node_id)
    elif recipe == "override-desc":
        node = builder._pick(builder.elements, exclude_root=True)
        if node is None or not node.children:
            return
        child = node.children[0]
        builder.ops.append(Delete(child.node_id))
        builder.ops.append(Delete(node.node_id))                 # rule O3
        builder.deleted.update((child.node_id, node.node_id))
    elif recipe == "collapse-insert":
        node = builder._pick(builder.elements)
        builder.ops.append(InsertIntoAsLast(node.node_id,
                                            [builder._fresh_tree()]))
        builder.ops.append(InsertIntoAsLast(node.node_id,
                                            [builder._fresh_tree()]))
        # rule I5
    elif recipe == "repn-before":
        node = builder._pick(builder.elements, exclude_root=True)
        if node is None or ("replaceNode", node.node_id) in \
                builder.used_replace:
            return
        builder.used_replace.add(("replaceNode", node.node_id))
        builder.ops.append(ReplaceNode(node.node_id,
                                       [builder._fresh_tree()]))
        builder.ops.append(InsertBefore(node.node_id,
                                        [builder._fresh_tree()]))
        # rule IR8
    elif recipe == "into-first":
        node = builder._pick(builder.elements)
        builder.ops.append(InsertInto(node.node_id,
                                      [builder._fresh_tree()]))
        builder.ops.append(InsertIntoAsFirst(node.node_id,
                                             [builder._fresh_tree()]))
        # rule I6


def generate_sequential_puls(document, count, size, new_node_ratio=0.5,
                             seed=0, origin=None):
    """A chain of ``count`` PULs of ``size`` ops each, where roughly
    ``new_node_ratio`` of the operations of later PULs target nodes
    inserted by earlier PULs — the aggregation workload of Figure 6c/6d.

    New nodes carry producer-assigned identifiers (Section 4.1: the
    producer assigns ids from its identification space when it applies a
    PUL locally); here ids are stamped directly on the parameter trees, so
    later PULs can target them.

    Returns ``(puls, final_document)``; ``document`` is not modified.
    """
    rng = random.Random(seed)
    working = document.copy()
    next_new = working.max_id() + 1
    puls = []
    inserted_ids = []

    def fresh_tree(tag, with_text):
        nonlocal next_new
        element = Node.element(tag, node_id=next_new)
        next_new += 1
        if with_text:
            element.append_child(Node.text(
                "t{}".format(rng.randrange(10 ** 6)), node_id=next_new))
            next_new += 1
        return element

    for index in range(count):
        ops = []
        old_pool = [n.node_id for n in working.nodes()
                    if n.is_element and n.node_id in document]
        live_inserted = [i for i in inserted_ids if i in working]
        while len(ops) < size:
            use_new = live_inserted and rng.random() < new_node_ratio
            if use_new:
                target = rng.choice(live_inserted)
            else:
                target = rng.choice(old_pool)
            choice = rng.random()
            if choice < 0.5:
                tree = fresh_tree("n{}".format(index % 7), True)
            else:
                tree = fresh_tree("m{}".format(index % 5), False)
            # no ins↓ here: its placement freedom makes the aggregate
            # merely substitutable (not tie-break-identical) to the
            # sequence, which would defeat byte-comparison oracles built
            # on this workload; small-case property tests cover ins↓
            if choice < 0.5:
                ops.append(InsertIntoAsLast(target, [tree]))
            else:
                ops.append(InsertIntoAsFirst(target, [tree]))
            # only elements are valid targets for the child inserts drawn
            # above, so text-node ids stay out of the target pool
            inserted_ids.append(tree.node_id)
        pul = PUL(ops, origin=origin)
        apply_pul(working, pul, preserve_ids=True)
        puls.append(pul)
    return puls, working
