"""The deterministic reduction acts locally.

A rule of Figure 2 relates two operations only through their targets:
the same node, an ancestor that deletes or replaces what is below it,
adjacent siblings whose inserts meet, a parent whose child insert lands
next to one of its children. Two operations with no such relation reduce
as if each were reduced alone; two with one are rewritten together. The
table below pins both sides on a small document, and the property below
it pins the consequence on generated record-local PULs: reducing the
whole PUL equals reducing each record's operations on their own.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling import ContainmentLabeling
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
from repro.reduction import reduce_deterministic
from repro.workloads import generate_pul, generate_xmark
from repro.xdm import parse_document
from repro.xdm.node import Node

from tests.strategies import applicable_puls, documents

DOC = "<r><a k='v'><a1/><a2/></a><b><b1/></b><c><c1/><c2/></c><d/></r>"


def _at(document, path):
    """Node id at a /-separated child-index path like '0/1'; '@' names
    the first attribute of the node reached so far."""
    node = document.root
    for step in filter(None, path.split("/")):
        node = node.attributes[0] if step == "@" else \
            node.children[int(step)]
    return node.node_id


def _tree(name):
    return [Node.element(name)]


#: (case, two operations on DOC by path, the reduction of the pair);
#: a reduction equal to the two operations means the pair stays apart
PAIRS = [
    ("renames-of-adjacent-siblings",
     lambda at: [Rename(at("0/0"), "x"), Rename(at("0/1"), "y")],
     ["ren(3, x)", "ren(4, y)"]),
    ("renames-of-ancestor-and-descendant",
     lambda at: [Rename(at("0"), "x"), Rename(at("0/0"), "y")],
     ["ren(1, x)", "ren(3, y)"]),
    ("disjoint-subtrees",
     lambda at: [Rename(at("0/0"), "x"), Delete(at("2/0"))],
     ["ren(3, x)", "del(8)"]),
    ("inserts-around-non-adjacent-siblings",
     lambda at: [InsertAfter(at("0"), _tree("t")),
                 InsertBefore(at("2"), _tree("u"))],
     ["ins→(1, <t/>)", "ins←(7, <u/>)"]),
    ("inserts-facing-away-from-each-other",
     lambda at: [InsertBefore(at("0/0"), _tree("t")),
                 InsertAfter(at("0/1"), _tree("u"))],
     ["ins←(3, <t/>)", "ins→(4, <u/>)"]),
    ("child-insert-beside-a-renamed-child",
     lambda at: [InsertInto(at("0"), _tree("t")),
                 Rename(at("0/0"), "y")],
     ["ren(3, y)", "ins↙(1, <t/>)"]),
    ("last-child-insert-and-insert-after-the-first-child",
     lambda at: [InsertIntoAsLast(at("0"), _tree("t")),
                 InsertAfter(at("0/0"), _tree("u"))],
     ["ins↘(1, <t/>)", "ins→(3, <u/>)"]),
    ("replaced-children-spare-own-attributes",
     lambda at: [ReplaceChildren(at("0"), [Node.text("x")]),
                 Rename(at("0/@"), "y")],
     ["repC(1, x)", "ren(2, y)"]),
    ("sibling-insert-survives-a-delete-of-its-target",
     lambda at: [InsertAfter(at("0/0"), _tree("t")), Delete(at("0/0"))],
     ["del(3)", "ins→(3, <t/>)"]),
    ("attribute-insert-and-rename-of-another-attribute",
     lambda at: [InsertAttributes(at("0"), [Node.attribute("q", "1")]),
                 Rename(at("0/@"), "z")],
     ["insA(1, q=\"1\")", "ren(2, z)"]),
    ("cousins",
     lambda at: [Rename(at("1/0"), "x"), InsertInto(at("2"), _tree("t"))],
     ["ren(6, x)", "ins↙(7, <t/>)"]),
    ("delete-and-child-insert-on-adjacent-siblings",
     lambda at: [Delete(at("1")), InsertInto(at("2"), _tree("u"))],
     ["del(5)", "ins↙(7, <u/>)"]),
    ("inserts-meeting-between-adjacent-siblings",
     lambda at: [InsertAfter(at("0/0"), _tree("t")),
                 InsertBefore(at("0/1"), _tree("u"))],
     ["ins←(4, <t/><u/>)"]),
    ("replaced-node-and-insert-before-its-right-sibling",
     lambda at: [ReplaceNode(at("0/0"), _tree("t")),
                 InsertBefore(at("0/1"), _tree("u"))],
     ["repN(3, <t/><u/>)"]),
    ("replaced-node-and-insert-after-it",
     lambda at: [ReplaceNode(at("0/0"), _tree("t")),
                 InsertAfter(at("0/0"), _tree("u"))],
     ["repN(3, <t/><u/>)"]),
    ("replaced-node-captures-an-insert-after-a-descendant",
     lambda at: [ReplaceNode(at("0"), _tree("t")),
                 InsertAfter(at("0/0"), _tree("u"))],
     ["repN(1, <t/>)"]),
    ("replaced-children-capture-an-insert-into-a-child",
     lambda at: [ReplaceChildren(at("0"), [Node.text("x")]),
                 InsertInto(at("0/0"), _tree("u"))],
     ["repC(1, x)"]),
    ("delete-captures-a-renamed-descendant",
     lambda at: [Delete(at("0")), Rename(at("0/0"), "y")],
     ["del(1)"]),
    ("delete-captures-a-deleted-descendant",
     lambda at: [Delete(at("0")), Delete(at("0/1"))],
     ["del(1)"]),
    ("delete-captures-an-attribute-rename",
     lambda at: [Delete(at("0")), Rename(at("0/@"), "z")],
     ["del(1)"]),
    ("delete-captures-an-attribute-value",
     lambda at: [ReplaceValue(at("0/@"), "w"), Delete(at("0"))],
     ["del(1)"]),
    ("replaced-children-capture-a-renamed-child",
     lambda at: [ReplaceChildren(at("0"), [Node.text("x")]),
                 Rename(at("0/0"), "y")],
     ["repC(1, x)"]),
    ("child-insert-joins-an-insert-before-the-first-child",
     lambda at: [InsertInto(at("0"), _tree("t")),
                 InsertBefore(at("0/0"), _tree("u"))],
     ["ins←(3, <t/><u/>)"]),
    ("first-child-insert-joins-an-insert-before-the-first-child",
     lambda at: [InsertIntoAsFirst(at("0"), _tree("t")),
                 InsertBefore(at("0/0"), _tree("u"))],
     ["ins←(3, <t/><u/>)"]),
    ("last-child-insert-joins-an-insert-after-the-last-child",
     lambda at: [InsertIntoAsLast(at("0"), _tree("t")),
                 InsertAfter(at("0/1"), _tree("u"))],
     ["ins→(4, <u/><t/>)"]),
    ("two-inserts-after-one-node",
     lambda at: [InsertAfter(at("0/0"), _tree("t")),
                 InsertAfter(at("0/0"), _tree("u"))],
     ["ins→(3, <t/><u/>)"]),
    ("two-child-inserts-into-one-node",
     lambda at: [InsertInto(at("0"), _tree("t")),
                 InsertInto(at("0"), _tree("u"))],
     ["ins↙(1, <t/><u/>)"]),
    ("delete-overrides-a-rename-of-the-same-node",
     lambda at: [Rename(at("0/0"), "x"), Delete(at("0/0"))],
     ["del(3)"]),
]


def _labeled(document, labeling, ops):
    pul = PUL(ops)
    pul.attach_labels(labeling)
    return pul


@pytest.mark.parametrize("build, expected",
                         [case[1:] for case in PAIRS],
                         ids=[case[0] for case in PAIRS])
def test_a_pair_is_rewritten_only_through_a_rule(build, expected):
    document = parse_document(DOC)
    labeling = ContainmentLabeling().build(document)

    def at(path):
        return _at(document, path)

    pair = build(at)
    reduced = reduce_deterministic(_labeled(document, labeling, pair))
    assert [op.describe() for op in reduced] == expected
    alone = PUL([op for single in build(at) for op in
                 reduce_deterministic(_labeled(document, labeling,
                                               [single]))])
    # a pair kept as it was reduces as its two halves reduce alone
    assert (reduced == alone) == (len(expected) == 2)


def _records(document):
    """Each node's ancestor at depth 2 (the root at depth 0), or None
    for the nodes above that depth."""
    record = {}

    def visit(node, depth, top):
        top = node.node_id if depth == 2 else top
        record[node.node_id] = top
        for child in list(node.attributes) + list(node.children):
            visit(child, depth + 1, top)

    visit(document.root, 0, None)
    return record


@pytest.fixture(scope="module")
def xmark():
    document = generate_xmark(scale=0.02, seed=7)
    return document, ContainmentLabeling().build(document), \
        _records(document)


@pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
def test_a_record_local_pul_reduces_record_by_record(xmark, seed):
    """Targets at depth 3 or more relate only to nodes of their own
    depth-2 record, so no rule crosses two records: the reduction of
    the whole PUL is the union of the records' reductions."""
    document, labeling, record = xmark
    pul = generate_pul(document, 60, seed=seed, labeling=labeling,
                       min_depth=3)
    groups = defaultdict(list)
    for op in pul:
        groups[record[op.target]].append(op)
    assert None not in groups and len(groups) > 1
    by_record = PUL([op for ops in groups.values() for op in
                     reduce_deterministic(_labeled(document, labeling,
                                                   ops))])
    assert reduce_deterministic(pul) == by_record


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reduction_leaves_its_input_alone(data):
    """The reduced PUL is a new one: the input keeps its operations, in
    their order, and its labels."""
    document = data.draw(documents())
    pul = data.draw(applicable_puls(document, max_ops=8))
    pul.attach_labels(ContainmentLabeling().build(document))
    ops = [op.describe() for op in pul]
    labels = dict(pul.labels)
    reduce_deterministic(pul)
    assert [op.describe() for op in pul] == ops
    assert pul.labels == labels
