"""Regression tests for reads racing in-place flushes.

PR 6 made flushed batches mutate the resident tree *in place*, which
turned every unlocked read into a torn-read bug: a reader walking the
tree mid-batch could serialize a half-applied state that never existed
as a published version. These tests provoke the race deterministically
by wrapping the batch applier so the tree passes through an observable
intermediate state while readers run.

The assertions are behavioral — "a reader observes the pre-batch or the
post-batch state, never anything between, and the version number it
reports pairs with the state it saw" — so they hold for any correct
implementation: serializing reads behind the flush lock or pinning an
immutable published version (MVCC).
"""

import threading

import pytest

import repro.store.store as store_module
from repro.errors import ReproError
from repro.pul.ops import Delete, InsertIntoAsFirst, Rename
from repro.pul.pul import PUL
from repro.pul.semantics import apply_operation
from repro.store import DocumentStore

DOC = ("<bib><paper><title>T1</title><authors><author>A</author>"
       "</authors></paper><paper><title>T2</title></paper>"
       "<note>n</note></bib>")


def _ids_by_name(document, name):
    return [n.node_id for n in document.nodes()
            if n.is_element and n.name == name]


class _TornApplyWindow:
    """Patch the store's batch applier so the tree is visibly torn.

    Before running the real application the wrapper detaches the root's
    first child (an intermediate state no published version ever had),
    signals ``in_window``, and holds the tree torn until ``release`` —
    any reader that observes the missing child during the window has
    read a torn state.
    """

    def __init__(self, monkeypatch):
        self.in_window = threading.Event()
        self.release = threading.Event()
        real_apply = store_module.apply_batch_in_place

        def torn_apply(document, labeling, pul, **options):
            first = document.root.children[0]
            apply_operation(document, Delete(first.node_id))
            self.in_window.set()
            self.release.wait(10)
            apply_operation(document, InsertIntoAsFirst(
                document.root.node_id, [first]), preserve_ids=True)
            return real_apply(document, labeling, pul,
                              **options)

        monkeypatch.setattr(store_module, "apply_batch_in_place",
                            torn_apply)


class TestTornReads:
    def test_text_never_observes_a_half_applied_batch(self, monkeypatch):
        with DocumentStore() as store:
            store.open("d1", DOC)
            before = store.text("d1")
            title = _ids_by_name(store.document("d1"), "title")[0]
            store.submit("d1", PUL([Rename(title, "headline")]))
            window = _TornApplyWindow(monkeypatch)

            flusher = threading.Thread(target=store.flush, args=("d1",),
                                       daemon=True)
            flusher.start()
            assert window.in_window.wait(10)

            observed = []
            reader = threading.Thread(
                target=lambda: observed.append(store.text("d1")),
                daemon=True)
            reader.start()
            # give the reader real time to walk the torn tree if the
            # read path lets it through
            reader.join(0.3)
            window.release.set()
            reader.join(10)
            flusher.join(10)
            assert not reader.is_alive() and not flusher.is_alive()
            after = store.text("d1")
            assert "<headline>" in after
            # pre-batch or post-batch text — never the torn tree
            assert observed == [before] or observed == [after]

    def test_stats_pair_version_with_node_count(self, monkeypatch):
        with DocumentStore() as store:
            store.open("d1", DOC)
            nodes_before = store.stats("d1")["nodes"]
            victim = _ids_by_name(store.document("d1"), "authors")[0]
            store.submit("d1", PUL([Delete(victim)]))
            window = _TornApplyWindow(monkeypatch)

            flusher = threading.Thread(target=store.flush, args=("d1",),
                                       daemon=True)
            flusher.start()
            assert window.in_window.wait(10)

            observed = []
            reader = threading.Thread(
                target=lambda: observed.append(store.stats("d1")),
                daemon=True)
            reader.start()
            reader.join(0.3)
            window.release.set()
            reader.join(10)
            flusher.join(10)
            assert not reader.is_alive() and not flusher.is_alive()
            nodes_after = store.stats("d1")["nodes"]
            assert nodes_after < nodes_before
            (snap,) = observed
            # the (version, nodes) pair must describe one published
            # version: v0 with the pre-batch count or v1 with the
            # post-batch count — the torn window pairs v0 with neither
            assert (snap["version"], snap["nodes"]) in {
                (0, nodes_before), (1, nodes_after)}


class TestFlushAllClose:
    def test_close_during_flush_all_is_not_a_failure(self):
        with DocumentStore() as store:
            store.open("a", DOC)
            store.open("b", DOC)
            for doc_id in ("a", "b"):
                title = _ids_by_name(store.document(doc_id), "title")[0]
                store.submit(doc_id, PUL([Rename(title, "headline")]))

            real_flush = DocumentStore.flush

            def racing_flush(doc_id):
                # "b" is closed between flush_all's doc_ids() listing
                # and its flush — the mid-iteration close race
                if doc_id == "b" and "b" in store:
                    store.close_document("b")
                return real_flush(store, doc_id)

            store.flush = racing_flush
            results = store.flush_all()
            # the surviving document flushed; the cleanly closed one is
            # skipped instead of reported as a batch failure
            assert [r.doc_id for r in results] == ["a"]
            assert "b" not in store

    def test_genuine_failures_still_raise(self):
        with DocumentStore() as store:
            store.open("a", DOC)
            title = _ids_by_name(store.document("a"), "title")[0]
            # two clients renaming the same target conflict under the
            # default on_conflict="error"
            store.submit("a", PUL([Rename(title, "x")], origin="alice"))
            store.submit("a", PUL([Rename(title, "y")], origin="bob"))
            with pytest.raises(ReproError, match="flush failed"):
                store.flush_all()
