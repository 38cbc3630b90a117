"""The id table: columns indexed by node id, one overflow dict for the
ids they do not cover (:mod:`repro.xdm.idtable`), as a document's node
and parent columns and a labeling's code columns keep it."""

import sys
import tracemalloc

import pytest

from repro.api.dispatch import StoreDispatcher
from repro.labeling import ContainmentLabeling
from repro.pul.ops import InsertIntoAsLast
from repro.pul.pul import PUL
from repro.pul.semantics import apply_pul
from repro.store import DocumentStore
from repro.xdm import idtable
from repro.xdm.document import Document, IdAllocator
from repro.xdm.node import Node
from repro.xdm.parser import parse_document

from tests.xdm.test_document import _walked

TEXT = '<r k="v"><a>one<b/></a><c x="1" y="2">two</c></r>'

#: allocators whose ids the columns cover, and ones they do not
ALLOCATORS = {
    "dense": (0, 1),
    "strided": (7, 3),
    "band": (10 ** 9, 1),
    "huge": (2 ** 70, 1),
}


def _where(document, node_id):
    """Where the table holds ``node_id``: ``"column"``, ``"far"`` or
    ``None``; never both."""
    in_column = (isinstance(node_id, int)
                 and 0 <= node_id < len(document._nodes)
                 and document._nodes[node_id] is not None)
    in_far = node_id in document._far
    assert not (in_column and in_far)
    return "column" if in_column else "far" if in_far else None


def assert_table(document):
    """Every node of the tree is found and parented as the tree says,
    in exactly one place, and the table holds nothing else."""
    walked = _walked(document)
    assert len(document) == len(walked)
    assert sorted(document.node_ids()) == sorted(walked)
    for node in document.nodes():
        assert document.find(node.node_id) is node
        assert document.parent_id(node.node_id) == walked[node.node_id]
        assert _where(document, node.node_id) is not None
    assert len(document._nodes) <= idtable.reach(len(document))


def assert_labeling(document, labeling):
    """The labeling holds one label per node, in exactly one place, in
    document order."""
    assert len(labeling) == len(document)
    order = [node.node_id for node in document.nodes()]
    starts = [labeling.start_of(node_id) for node_id in order]
    assert starts == sorted(starts) and None not in starts
    for node_id in order:
        start, end = labeling.label_of(node_id)
        assert start == labeling.start_of(node_id) and start < end
        in_column = (isinstance(node_id, int)
                     and 0 <= node_id < len(labeling._starts)
                     and labeling._starts[node_id] != 0)
        assert in_column != (node_id in labeling._far)


@pytest.mark.parametrize("kind", sorted(ALLOCATORS))
def test_ids_are_found_parented_and_forgotten(kind):
    start, stride = ALLOCATORS[kind]
    document = parse_document(
        TEXT, allocator=IdAllocator(start=start, stride=stride))
    labeling = ContainmentLabeling().build(document)
    assert_table(document)
    assert_labeling(document, labeling)
    expected = "column" if kind in ("dense", "strided") else "far"
    assert {_where(document, node_id)
            for node_id in document.node_ids()} == {expected}
    # one more subtree, then drop one
    host = next(node for node in document.nodes() if node.name == "c")
    tree = Node.element("d")
    tree.append_child(Node.text("three"))
    host.append_child(tree)
    document.register_tree(tree, host)
    labeling.sync(document)
    assert_table(document)
    assert_labeling(document, labeling)
    gone = [node.node_id for node in tree.iter_subtree()]
    host.children.remove(tree)
    document.forget_ids(gone)
    for node_id in gone:
        labeling.forget(node_id)
        assert document.find(node_id) is None
        assert document.parent_id(node_id) is None
        assert node_id not in labeling
        assert _where(document, node_id) is None
    assert_table(document)
    assert_labeling(document, labeling)


def test_negative_ids_live_in_the_overflow_dict():
    root = Node.element("r", node_id=-1)
    child = root.append_child(Node.element("a", node_id=-5))
    child.append_child(Node.text("t", node_id=0))
    document = Document(root=root)
    assert [_where(document, node_id) for node_id in (-1, -5, 0)] \
        == ["far", "far", "column"]
    assert document.parent_id(-5) == -1 and document.parent_id(0) == -5
    # a negative index is no slot from the end of a column
    assert document.find(-2) is None
    labeling = ContainmentLabeling().build(document)
    assert_table(document)
    assert_labeling(document, labeling)
    assert labeling.find(-2) is None
    document.forget_ids([-5])
    assert document.find(-5) is None and len(document) == 2


def test_a_far_id_allocates_no_column_of_its_size():
    """Entering ``2**62`` into a small document keeps every column at
    the size of the live ids: the id goes to the overflow dict."""
    document = parse_document(TEXT)
    labeling = ContainmentLabeling().build(document)
    tracemalloc.start()
    try:
        far = Node.element("far", node_id=2 ** 62)
        document.root.append_child(far)
        document.register_tree(far, document.root)
        labeling.sync(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert _where(document, 2 ** 62) == "far"
    assert document.span < idtable.reach(len(document))
    assert len(labeling._starts) < idtable.reach(len(labeling))
    assert_table(document)
    assert_labeling(document, labeling)
    # the allocator sits past the far id now, so the next id is far too
    assert document.fresh_id() == 2 ** 62 + 1


def test_an_id_that_moves_during_a_growth_lives_in_one_place():
    """A far id becomes near once the columns grow past it: the growth
    moves it into the columns, and it is never in both."""
    document = Document(root=Node.element("r"))
    early = idtable.reach(1) + 10     # far while the document is small
    node = Node.element("early", node_id=early)
    document.root.append_child(node)
    document.register_tree(node, document.root)
    assert _where(document, early) == "far"
    # fill in dense ids until a growth covers ``early``
    for __ in range(early):
        if _where(document, early) == "column":
            break
        child = Node.element("n")
        document.root.append_child(child)
        document.register_tree(child, document.root)
        assert _where(document, early) is not None
    assert _where(document, early) == "column"
    assert document.find(early) is node
    assert document.parent_id(early) == document.root.node_id
    assert_table(document)


def test_a_path_copy_leaves_every_lookup_on_its_base():
    """A path copy slices the base's columns: edits on the copy, and
    the copy's publication as the next version, change no lookup on
    the base — for column ids and far ids alike."""
    with DocumentStore() as store:
        store.open("d", TEXT)
        base = store._entries["d"].published
        far = Node.element("far", node_id=10 ** 9)
        # a base holding a far id, as a producer's copy does
        document = base.document.copy()
        apply_pul(document, PUL([InsertIntoAsLast(
            document.root.node_id, [far])]), preserve_ids=True)
        assert _where(document, 10 ** 9) == "far"
        labeling = ContainmentLabeling().build(document)
        before = {node.node_id: (document.find(node.node_id),
                                 document.parent_id(node.node_id),
                                 labeling.find(node.node_id))
                  for node in document.nodes()}
        copy = document.path_copy([10 ** 9, 3])
        copy_labels = labeling.copy()
        copy.find(10 ** 9).append_child(Node.text("inside"))
        copy.register_tree(copy.find(10 ** 9).children[0],
                           copy.find(10 ** 9))
        copy_labels.sync(copy)
        copy.forget_ids([3])
        copy_labels.forget(3)
        assert copy.find(3) is None and copy.find(10 ** 9) is not far
        after = {node_id: (document.find(node_id),
                           document.parent_id(node_id),
                           labeling.find(node_id))
                 for node_id in before}
        assert after == before
        assert len(document) == len(before)
        # and through the store: publishing a flush leaves the retired
        # version's lookups as they were
        retired = {node.node_id: (base.document.find(node.node_id),
                                  base.document.parent_id(node.node_id),
                                  base.labeling.find(node.node_id))
                   for node in base.document.nodes()}
        store.submit("d", PUL([InsertIntoAsLast(
            base.document.root.node_id, [Node.element("new")])]))
        store.flush("d")
        assert store._entries["d"].published is not base
        assert {node_id: (base.document.find(node_id),
                          base.document.parent_id(node_id),
                          base.labeling.find(node_id))
                for node_id in retired} == retired


def test_stats_give_the_tables_bytes_without_a_walk(monkeypatch):
    """``stats`` reports each document's id table and code columns as
    ``sys.getsizeof`` gives their containers, through the store and the
    wire's ``stats`` op, and walks no tree to do it."""
    with DocumentStore() as store:
        store.open("d", TEXT)
        version = store._entries["d"].published
        document, labeling = version.document, version.labeling
        table = (sys.getsizeof(document._nodes)
                 + sys.getsizeof(document._parents)
                 + sys.getsizeof(document._far))
        codes = (sys.getsizeof(labeling._starts)
                 + sys.getsizeof(labeling._ends)
                 + sys.getsizeof(labeling._far))

        def no_walk(*args, **kwargs):
            raise AssertionError("stats walked a tree")

        monkeypatch.setattr(Node, "iter_subtree", no_walk)
        monkeypatch.setattr(Node, "iter_with_parents", no_walk)
        stats = store.stats("d")
        assert (stats["id_table_bytes"], stats["code_bytes"]) \
            == (table, codes)
        (wire,) = StoreDispatcher(store).stats("d")["stats"]
        assert (wire["id_table_bytes"], wire["code_bytes"]) \
            == (table, codes)
