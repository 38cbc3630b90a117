"""Unit tests for the resident multi-document store."""

import threading

import pytest

from repro.errors import MergeError, ReproError
from repro.pul.ops import (
    Delete,
    InsertAttributes,
    InsertIntoAsLast,
    Rename,
    ReplaceValue,
)
from repro.pul.pul import PUL
from repro.store import DocumentStore
from repro.xdm.node import Node

DOC = ("<bib><paper><title>T1</title><authors><author>A</author>"
       "</authors></paper><paper><title>T2</title></paper>"
       "<note>n</note></bib>")


@pytest.fixture
def store():
    with DocumentStore() as store:
        yield store


def _ids_by_name(document, name):
    return [n.node_id for n in document.nodes()
            if n.is_element and n.name == name]


def _text_id(document, value):
    return next(n.node_id for n in document.nodes()
                if n.is_text and n.value == value)


class TestLifecycle:
    def test_open_parses_and_labels(self, store):
        version = store.open("d1", DOC).published
        assert version.version == 0
        assert len(version.document) == len(version.labeling)
        assert "d1" in store
        assert store.doc_ids() == ["d1"]

    def test_open_accepts_a_document_object(self, store):
        from repro.xdm.parser import parse_document
        store.open("d1", parse_document(DOC))
        assert store.text("d1") == DOC

    def test_duplicate_open_rejected(self, store):
        store.open("d1", DOC)
        with pytest.raises(ReproError):
            store.open("d1", DOC)

    def test_unknown_document_rejected(self, store):
        with pytest.raises(ReproError):
            store.submit("ghost", PUL([]))
        with pytest.raises(ReproError):
            store.flush("ghost")
        with pytest.raises(ReproError):
            store.text("ghost")

    def test_close_document_evicts(self, store):
        store.open("d1", DOC)
        store.close_document("d1")
        assert "d1" not in store

    def test_bad_configuration_rejected(self):
        with pytest.raises(ReproError):
            DocumentStore(on_conflict="overwrite")
        with pytest.raises(ReproError):
            DocumentStore(max_code_length=0)


class TestBatches:
    def test_flush_nothing_pending(self, store):
        store.open("d1", DOC)
        assert store.flush("d1") is None
        assert store.version("d1") == 0

    def test_single_client_batch(self, store):
        store.open("d1", DOC)
        title = _ids_by_name(store.document("d1"), "title")[0]
        store.submit("d1", PUL([Rename(title, "headline")]),
                     client="alice")
        result = store.flush("d1")
        assert result.version == 1
        assert result.relabel == "incremental"
        assert "<headline>T1</headline>" in store.text("d1")

    def test_documents_are_isolated(self, store):
        store.open("d1", DOC)
        store.open("d2", DOC)
        title = _ids_by_name(store.document("d1"), "title")[0]
        store.submit("d1", PUL([Rename(title, "headline")]))
        store.flush("d1")
        assert store.version("d1") == 1
        assert store.version("d2") == 0
        assert store.text("d2") == DOC

    def test_same_client_chain_is_sequential(self, store):
        """A client's second PUL may target nodes its first inserted."""
        store.open("d1", DOC)
        root = store.document("d1").root.node_id
        tree = Node.element("shelf", node_id=500)
        first = PUL([InsertIntoAsLast(root, [tree])])
        second = PUL([InsertIntoAsLast(500, [Node.text("books")])])
        store.submit("d1", first, client="alice")
        store.submit("d1", second, client="alice")
        result = store.flush("d1")
        assert result.clients == 1
        assert "<shelf>books</shelf>" in store.text("d1")

    def test_multi_client_union(self, store):
        store.open("d1", DOC)
        titles = _ids_by_name(store.document("d1"), "title")
        store.submit("d1", PUL([Rename(titles[0], "headline")]),
                     client="alice")
        store.submit("d1", PUL([Rename(titles[1], "caption")]),
                     client="bob")
        result = store.flush("d1")
        assert result.clients == 2
        text = store.text("d1")
        assert "<headline>" in text and "<caption>" in text

    def test_incompatible_clients_fail_and_restore_pending(self, store):
        store.open("d1", DOC)
        note = _text_id(store.document("d1"), "n")
        store.submit("d1", PUL([ReplaceValue(note, "from-alice")]),
                     client="alice")
        store.submit("d1", PUL([ReplaceValue(note, "from-bob")]),
                     client="bob")
        with pytest.raises(MergeError):
            store.flush("d1")
        # no partial state published, queue intact for reconciliation
        assert store.text("d1") == DOC
        assert store.version("d1") == 0
        assert store.stats("d1")["pending"] == 2

    def test_failed_apply_rolls_back_labeling(self, store):
        """A batch that dies mid-apply (XQUF duplicate-attribute error)
        died on the writer's private copy: what is published afterwards
        is not an equal document with consistent labels, it is the same
        document, labeling and index objects as before."""
        from repro.errors import NotApplicableError
        published = store.open("d1", DOC).published
        parts = (published.document, published.labeling, published.index)
        stats = store.stats("d1")
        paper = _ids_by_name(store.document("d1"), "paper")[0]
        store.submit("d1", PUL([InsertAttributes(
            paper, [Node.attribute("dup", "1")])]), client="alice")
        store.submit("d1", PUL([InsertAttributes(
            paper, [Node.attribute("dup", "2")])]), client="bob")
        with pytest.raises(NotApplicableError):
            store.flush("d1")
        assert store.text("d1") == DOC
        assert store.version("d1") == 0
        assert store._entries["d1"].published is published
        assert all(now is then for now, then in zip(
            (published.document, published.labeling, published.index),
            parts))
        assert store.stats("d1") == dict(stats, pending=2)
        labeling = store.labeling("d1")
        document = store.document("d1")
        assert len(labeling) == len(document)
        assert all(node_id in document
                   for node_id in labeling.as_mapping())
        # the session continues cleanly once the bad batch is withdrawn
        assert store.discard_pending("d1") == 2
        title = _ids_by_name(document, "title")[0]
        store.submit("d1", PUL([Rename(title, "headline")]))
        assert store.flush("d1").version == 1
        assert "<headline>" in store.text("d1")

    def test_reconcile_mode_resolves_conflicts(self):
        with DocumentStore(on_conflict="reconcile") as store:
            store.open("d1", DOC)
            note = _text_id(store.document("d1"), "n")
            store.submit("d1", PUL([ReplaceValue(note, "from-alice")],
                                   origin="alice"))
            store.submit("d1", PUL([ReplaceValue(note, "from-bob")],
                                   origin="bob"))
            result = store.flush("d1")
            assert result.version == 1
            assert store.text("d1") != DOC

    def test_flush_all(self, store):
        store.open("d1", DOC)
        store.open("d2", DOC)
        for doc_id in ("d1", "d2"):
            title = _ids_by_name(store.document(doc_id), "title")[0]
            store.submit(doc_id, PUL([Rename(title, "headline")]))
        results = store.flush_all()
        assert sorted(r.doc_id for r in results) == ["d1", "d2"]
        assert all(r.version == 1 for r in results)

    def test_flush_all_continues_past_a_failing_document(self, store):
        """One document's bad batch must not starve the others."""
        store.open("bad", DOC)
        store.open("good", DOC)
        note = _text_id(store.document("bad"), "n")
        store.submit("bad", PUL([ReplaceValue(note, "a")]),
                     client="alice")
        store.submit("bad", PUL([ReplaceValue(note, "b")]), client="bob")
        title = _ids_by_name(store.document("good"), "title")[0]
        store.submit("good", PUL([Rename(title, "headline")]))
        with pytest.raises(ReproError, match="'bad'"):
            store.flush_all()
        # the healthy document was flushed, the bad one kept its queue
        assert store.version("good") == 1
        assert "<headline>" in store.text("good")
        assert store.stats("bad")["pending"] == 2
        assert store.version("bad") == 0


class TestIdentifierDiscipline:
    def test_removed_identifiers_stay_burned(self, store):
        store.open("d1", DOC)
        document = store.document("d1")
        burned = max(document.node_ids())
        victim = document.get(burned)
        while document.parent_id(document.parent_id(victim.node_id)) \
                is not None:
            victim = document.parent(victim)
        store.submit("d1", PUL([Delete(victim.node_id)]))
        store.flush("d1")
        removed = {victim.node_id, burned}
        root = store.document("d1").root.node_id
        store.submit("d1", PUL([InsertIntoAsLast(
            root, [Node.element("fresh")])]))
        store.flush("d1")
        fresh = [n.node_id for n in store.document("d1").nodes()
                 if n.is_element and n.name == "fresh"]
        assert fresh and fresh[0] not in removed


class TestHeadroomFallback:
    def test_hot_spot_triggers_full_relabel(self):
        with DocumentStore(max_code_length=10) as store:
            store.open("d1", "<list><slot/></list>")
            relabels = []
            for round_index in range(12):
                slot = _ids_by_name(store.document("d1"), "slot")[0]
                store.submit("d1", PUL([InsertIntoAsLast(
                    slot, [Node.element("e{}".format(round_index))])]))
                relabels.append(store.flush("d1").relabel)
            stats = store.stats("d1")
            assert "full" in relabels
            assert stats["full_relabels"] >= 1
            assert stats["incremental_relabels"] >= 1
            # a full relabel rebalanced the codes below the budget
            assert store.labeling("d1").max_code_length <= 10
            assert len(store.labeling("d1")) == len(store.document("d1"))


class TestConcurrency:
    def test_concurrent_submissions_all_land(self, store):
        store.open("d1", DOC)
        root = store.document("d1").root.node_id
        threads = []

        def client(name):
            for index in range(5):
                tree = Node.element("{}x{}".format(name, index))
                store.submit("d1", PUL([InsertIntoAsLast(root, [tree])]),
                             client=name)

        for name in ("a", "b", "c", "d"):
            thread = threading.Thread(target=client, args=(name,))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join()
        assert store.stats("d1")["pending"] == 20
        result = store.flush("d1")
        assert result.version == 1
        assert result.clients == 4
        root_node = store.document("d1").root
        assert sum(1 for child in root_node.children
                   if child.is_element and "x" in child.name) == 20

    def test_concurrent_flushes_serialize(self, store):
        """Two flushes of the same document never interleave: the second
        blocks until the first publishes."""
        store.open("d1", DOC)
        root = store.document("d1").root.node_id
        inner = store._execute_batch
        started = threading.Event()
        release = threading.Event()

        def slow_execute(entry, pending):
            started.set()
            assert release.wait(5)
            return inner(entry, pending)

        store._execute_batch = slow_execute
        store.submit("d1", PUL([InsertIntoAsLast(
            root, [Node.element("first")])]))
        results = []
        one = threading.Thread(
            target=lambda: results.append(store.flush("d1")))
        one.start()
        assert started.wait(5)
        store.submit("d1", PUL([InsertIntoAsLast(
            root, [Node.element("second")])]))
        store._execute_batch = inner  # second flush runs at full speed
        two = threading.Thread(
            target=lambda: results.append(store.flush("d1")))
        two.start()
        two.join(timeout=0.2)
        assert two.is_alive()        # blocked behind the first flush
        release.set()
        one.join(5)
        two.join(5)
        assert sorted(r.version for r in results) == [1, 2]
        text = store.text("d1")
        assert "<first/>" in text and "<second/>" in text
