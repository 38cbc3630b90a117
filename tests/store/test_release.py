"""Store garbage dies by reference counting — a tree points downwards
only — and the collector is paused only across a restore: store-README
invariant 10.

Every test of the release paths runs with the cyclic collector off: a
tree the store let go of must be freed by reference counting alone,
so after each path the live :class:`~repro.xdm.node.Node` count is the
published trees' size plus the nodes the test itself still holds
(the style of ``test_mvcc.py::TestRetiredVersionRelease``).
"""

import gc
import sys
import threading
from array import array

import pytest

from repro.cluster import ReplicaStore
from repro.errors import ReproError, StoreClosedError
from repro.obs.collector import collector_paused
from repro.pul.ops import (
    Delete,
    InsertAttributes,
    InsertIntoAsLast,
    ReplaceChildren,
    ReplaceNode,
)
from repro.pul.pul import PUL
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.store import DocumentStore
from repro.xdm.node import Node

DOC = '<r><a k="v"><b>x</b><c/></a><d>t</d></r>'
OTHER = "<s><e>y</e></s>"


def _live_nodes():
    return sum(1 for obj in gc.get_objects() if type(obj) is Node)


def _id(store, doc_id, name):
    return next(node.node_id for node in store.document(doc_id).nodes()
                if node.is_element and node.name == name)


def _tree():
    """A two-level parameter tree."""
    tree = Node.element("n")
    tree.append_child(Node.element("m"))
    return tree


@pytest.fixture
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.usefixtures("collector_off")
class TestReleasePaths:
    """One test per path by which the store lets go of nodes."""

    @pytest.mark.parametrize("make_op", [
        lambda a: Delete(a),
        lambda a: ReplaceNode(a, [_tree()]),
        lambda a: ReplaceChildren(a, "new text"),
    ], ids=["delete", "repN", "repC"])
    def test_a_removed_subtree_is_freed_at_publish(self, make_op):
        with DocumentStore() as store:
            store.open("d", DOC)
            others = _live_nodes() - len(store.document("d"))
            pul = PUL([make_op(_id(store, "d", "a"))])
            held = sum(len(list(tree.iter_subtree()))
                       for op in pul for tree in op.trees)
            store.submit("d", pul)
            store.flush("d")
            # the removed subtree, the store's copies of the parameter
            # trees and the retired path copy are all gone
            assert _live_nodes() - others \
                == len(store.document("d")) + held

    def test_a_failed_batch_leaves_no_copy_behind(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            published = store._entries["d"].published
            others = _live_nodes() - len(published.document)
            a = _id(store, "d", "a")
            # a duplicate attribute: the batch fails on the path copy
            # after inserting into it
            for client in ("alice", "bob"):
                store.submit("d", PUL([InsertAttributes(
                    a, [Node.attribute("dup", client)])]), client=client)
            with pytest.raises(ReproError):
                store.flush("d")
            assert store._entries["d"].published is published
            # the two submitted attributes wait in the restored queue
            assert _live_nodes() - others == len(published.document) + 2

    def test_a_closed_document_is_freed(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            store.open("e", OTHER)
            others = (_live_nodes() - len(store.document("d"))
                      - len(store.document("e")))
            store.close_document("d")
            assert _live_nodes() - others == len(store.document("e"))

    def test_a_closed_store_is_freed_with_its_last_reference(self):
        store = DocumentStore()
        store.open("d", DOC)
        store.submit("d", PUL([Delete(_id(store, "d", "c"))]))
        store.flush("d")
        others = _live_nodes() - len(store.document("d"))
        # a reader still holds the published version
        held = store._entries["d"].published
        store.close()
        del store
        assert _live_nodes() - others == len(held.document)
        del held
        assert _live_nodes() == others

    def test_a_rebootstrapped_replica_frees_what_it_replaced(self):
        with DocumentStore() as leader:
            leader.open("d", DOC)
            leader.open("e", OTHER)
            payloads = leader.export_state()["docs"]
        with ReplicaStore() as replica:
            replica.bootstrap(payloads, 0, stream="s1")
            others = (_live_nodes() - len(replica.document("d"))
                      - len(replica.document("e")))
            replica.bootstrap(payloads[1:], 0, stream="s2")
            assert "d" not in replica
            assert _live_nodes() - others == len(replica.document("e"))


def _decoded_round(store, serial):
    """One round's PUL, as a client's bytes decode it: three trees
    inserted under the root and, once there are three ``n`` elements,
    a delete, a ``repN`` and a ``repC`` of the first three."""
    document = store.document("d")
    root = document.root
    trees = []
    for index in range(3):
        tree = Node.element("n")
        tree.append_attribute(Node.attribute("k", str(serial)))
        tree.append_child(_tree())
        trees.append(tree)
    ops = [InsertIntoAsLast(root.node_id, trees)]
    old = [child.node_id for child in root.children
           if child.is_element and child.name == "n"]
    if len(old) >= 3:
        ops += [Delete(old[0]), ReplaceNode(old[1], [_tree()]),
                ReplaceChildren(old[2], "text {}".format(serial))]
    return pul_from_xml(pul_to_xml(PUL(ops)))


def test_nothing_the_store_holds_or_decodes_is_cyclic(tmp_path):
    """With the collector off and every unreachable object saved, a
    loop of durable flushes of decoded PULs, then closing the store,
    leaves no :class:`Node` for the collector to find."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        store = DocumentStore(durability="log",
                              wal_dir=str(tmp_path))
        store.open("d", DOC)
        for serial in range(8):
            store.submit("d", _decoded_round(store, serial))
            store.flush("d")
        assert store.version("d") == 8
        store.close()
        del store
        gc.collect()
        cyclic = [obj for obj in gc.garbage if type(obj) is Node]
        assert cyclic == []
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.enable()


def test_resident_code_pairs_are_not_tracked_by_the_collector(tmp_path):
    """A node's two codes are two slots of its labeling's ``array('Q')``
    columns, not objects: after ``gc.collect()`` a resident labeling —
    built at open, extended by an incremental flush, rebuilt by a full
    relabel, restored by a restart — leaves the collector its two
    columns to walk and nothing per node (a dict of per-node values
    would leave one entry each)."""
    wal = str(tmp_path / "wal")

    def assert_untracked(store):
        gc.collect()
        for doc_id in ("d", "e"):
            labeling = store.labeling(doc_id)
            assert len(labeling) == len(store.document(doc_id))
            for column in (labeling._starts, labeling._ends):
                assert type(column) is array and column.typecode == "Q"
            assert labeling._far == {}

    with DocumentStore(durability="log",
                       wal_dir=wal) as store:
        store.open("d", DOC)
        store.open("e", OTHER)
        store.submit("d", PUL([InsertIntoAsLast(_id(store, "d", "a"),
                                                [_tree()])]))
        assert store.flush("d").relabel == "incremental"
        store.submit("e", PUL([InsertAttributes(_id(store, "e", "e"), [
            Node.attribute("k", "v")])]))
        store.flush("e")
        assert_untracked(store)
    with DocumentStore(durability="log",
                       wal_dir=wal) as restarted:
        assert_untracked(restarted)
    with DocumentStore(max_code_length=1) as store:
        store.open("d", DOC)
        store.open("e", OTHER)
        store.submit("d", PUL([InsertIntoAsLast(_id(store, "d", "a"),
                                                [_tree()])]))
        assert store.flush("d").relabel == "full"
        assert_untracked(store)


class TestCollectorPause:
    """The one helper that touches the collector's state."""

    @pytest.fixture(autouse=True)
    def _collector_on(self):
        assert gc.isenabled()
        yield
        gc.enable()

    def test_nested_pauses_resume_at_the_outermost_exit(self):
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_the_outermost_exit_runs_one_young_generation_pass(self):
        seen = []

        def hook(phase, info):
            if phase == "stop":
                seen.append(info["generation"])

        gc.callbacks.append(hook)
        try:
            with collector_paused():
                for __ in range(10000):
                    node = Node.element("x")
                    node.append_child(Node.element("y"))
                assert seen == []
            # the first collection after the pause is its own pass
            assert seen[:1] == [1]
        finally:
            gc.callbacks.remove(hook)

    def test_two_threads_share_one_pause(self):
        entered = threading.Event()
        leave = threading.Event()

        def other():
            with collector_paused():
                entered.set()
                leave.wait(10)

        thread = threading.Thread(target=other)
        with collector_paused():
            thread.start()
            assert entered.wait(10)
        # the other thread's pause still holds
        assert not gc.isenabled()
        leave.set()
        thread.join(10)
        assert not thread.is_alive()
        assert gc.isenabled()

    def test_many_threads_keep_one_depth_count(self):
        # a lost update of the depth count would leave the collector
        # off after the last exit, or turn it on inside a pause
        outside = []

        def pauses():
            for __ in range(200):
                with collector_paused():
                    with collector_paused():
                        if gc.isenabled():
                            outside.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pauses) for __ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outside == []
        assert gc.isenabled()

    def test_an_exception_inside_resumes_the_collector(self):
        with pytest.raises(ValueError):
            with collector_paused():
                raise ValueError("restore failed")
        assert gc.isenabled()

    def test_a_caller_who_disabled_the_collector_keeps_it_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_a_restart_restores_with_the_collector_paused(
            self, tmp_path, monkeypatch):
        with DocumentStore(durability="log", wal_dir=str(tmp_path)) as store:
            store.open("d", DOC)
        states = []
        real = DocumentStore._recover_state

        def recover(store, state):
            states.append(gc.isenabled())
            return real(store, state)

        monkeypatch.setattr(DocumentStore, "_recover_state", recover)
        with DocumentStore(durability="log", wal_dir=str(tmp_path)) as store:
            assert gc.isenabled()
            assert store.text("d") == DOC
        assert states == [False]


class TestClosedStore:
    """A closed store refuses every write with one typed error under
    every durability policy; reads go on."""

    @pytest.fixture(params=["off", "log"])
    def closed(self, request, tmp_path):
        kwargs = ({} if request.param == "off"
                  else {"durability": "log", "wal_dir": str(tmp_path)})
        store = DocumentStore(**kwargs)
        store.open("d", DOC)
        store.close()
        return store

    @pytest.mark.parametrize("write", [
        lambda store: store.open("e", OTHER),
        lambda store: store.bulk_load([{"doc_id": "e", "xml": OTHER}]),
        lambda store: store.submit("d", PUL([Delete(_id(store, "d", "c"))])),
        lambda store: store.flush("d"),
        lambda store: store.flush_all(),
        lambda store: store.discard_pending("d"),
        lambda store: store.close_document("d"),
    ], ids=["open", "bulk_load", "submit", "flush", "flush_all",
            "discard", "close_document"])
    def test_a_write_is_refused(self, closed, write):
        with pytest.raises(StoreClosedError) as refused:
            write(closed)
        assert refused.value.code == "store-closed"
        assert closed.doc_ids() == ["d"]
        assert closed.text("d") == DOC
        assert closed.version("d") == 0
