"""Version semantics of the read surface (satellite of the MVCC PR).

``query`` and ``text`` report *exactly* the version they walked: the
reader pins one published version, evaluates against it, and stamps the
result with that version — never the version of a batch that published
concurrently mid-walk. These tests nail the contract at the dispatcher
(the shape every transport serializes) and at the store.
"""

import threading

import repro.store.reads as reads_module
from repro.api.dispatch import StoreDispatcher
from repro.pul.ops import Rename
from repro.pul.pul import PUL
from repro.store import DocumentStore

DOC = ("<bib><paper><title>T1</title></paper>"
       "<note>n</note></bib>")


def _title_id(store, doc_id):
    return next(n.node_id for n in store.document(doc_id).nodes()
                if n.is_element and n.name == "title")


class TestDispatcherVersions:
    def test_text_carries_the_serialized_version(self):
        with DocumentStore() as store:
            dispatcher = StoreDispatcher(store)
            store.open("d", DOC)
            result = dispatcher.text("d")
            assert result["version"] == 0
            store.submit("d", PUL([Rename(_title_id(store, "d"), "t2")]))
            store.flush("d")
            result = dispatcher.text("d")
            assert result["version"] == 1
            assert "<t2>" in result["text"]

    def test_query_reports_the_version_it_walked(self):
        with DocumentStore() as store:
            dispatcher = StoreDispatcher(store)
            store.open("d", DOC)
            result = dispatcher.query("d", "/bib/paper/title")
            assert result["version"] == 0
            assert result["count"] == 1


class TestPinSemantics:
    def test_query_version_matches_its_result_under_a_racing_flush(
            self, monkeypatch):
        """A query that starts on version N keeps reporting N (with
        N's nodes) even when a flush publishes N+1 while the query's
        evaluation is still walking — the pinned version, not the
        latest one, is the query's world."""
        with DocumentStore() as store:
            store.open("d", DOC)
            store.submit("d", PUL([Rename(_title_id(store, "d"),
                                          "headline")]))

            in_walk = threading.Event()
            release = threading.Event()
            real_serialize = reads_module.serialize_node

            def stalling_serialize(node):
                # the query result is rendered inside the pin window;
                # stall it so a flush can publish v1 mid-query
                in_walk.set()
                release.wait(10)
                return real_serialize(node)

            monkeypatch.setattr(reads_module, "serialize_node",
                                stalling_serialize)

            results = []
            querier = threading.Thread(
                target=lambda: results.append(
                    store.query("d", "/bib/paper/title")),
                daemon=True)
            querier.start()
            assert in_walk.wait(10)
            monkeypatch.setattr(reads_module, "serialize_node",
                                real_serialize)
            store.flush("d")
            assert store.version("d") == 1
            release.set()
            querier.join(10)
            assert not querier.is_alive()

            (result,) = results
            assert result["version"] == 0
            assert "<title>" in result["nodes"][0]

    def test_text_version_pair_is_consistent(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            title = _title_id(store, "d")
            for i in range(3):
                text, version = store.text_version("d")
                assert version == i
                assert version == store.version("d")
                store.submit("d", PUL([Rename(title, "n{}".format(i))]))
                store.flush("d")
