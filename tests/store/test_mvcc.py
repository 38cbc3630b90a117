"""MVCC snapshot-tree semantics: store-README invariant 9.

Every read observes exactly one *published* version — never a torn
intermediate, never a blend of two versions — and writes never block
reads. The oracle is :class:`StatelessBaseline`: the same batch
sequence is run through the baseline first, recording the serialized
text of every published version; any ``(version, text)`` pair a
concurrent reader then observes from the MVCC store must byte-match
that timeline.
"""

import threading
import time

import pytest

import repro.store.store as store_module
from repro.errors import DurabilityError
from repro.pul.ops import Rename
from repro.pul.pul import PUL
from repro.store import DocumentStore, StatelessBaseline
from repro.xdm.serializer import serialize

DOC = ("<bib><paper><title>T1</title><authors><author>A</author>"
       "</authors></paper><paper><title>T2</title></paper>"
       "<note>n</note></bib>")


def _id_of(document, name):
    return next(n.node_id for n in document.nodes()
                if n.is_element and n.name == name)


def _batch_specs(document, rounds):
    """``rounds`` rename batches addressing stable node ids (renames
    keep identifiers, so one id lookup serves the whole sequence)."""
    title = _id_of(document, "title")
    author = _id_of(document, "author")
    return [[(title, "t{}".format(i)), (author, "a{}".format(i))]
            for i in range(rounds)]


def _baseline_timeline(specs):
    """``{version: text}`` of every version the batch sequence
    publishes, computed by the stateless differential oracle."""
    baseline = StatelessBaseline(measure_parse=False)
    baseline.open("d", DOC)
    timeline = {0: baseline.text("d")}
    for spec in specs:
        baseline.submit("d", PUL([Rename(t, name) for t, name in spec]))
        baseline.flush("d")
        timeline[baseline.version("d")] = baseline.text("d")
    return timeline


class _StalledApplyWindow:
    """Patch the batch applier to park mid-flush: the flush signals
    ``in_window`` with the batch logged but not yet published, and only
    proceeds once ``release`` is set."""

    def __init__(self, monkeypatch):
        self.in_window = threading.Event()
        self.release = threading.Event()
        real_apply = store_module.apply_batch_in_place

        def stalled_apply(document, labeling, pul, preserve_ids=True):
            self.in_window.set()
            self.release.wait(10)
            return real_apply(document, labeling, pul,
                              preserve_ids=preserve_ids)

        monkeypatch.setattr(store_module, "apply_batch_in_place",
                            stalled_apply)


class TestReadersVersusWriter:
    def test_threaded_readers_observe_only_published_versions(
            self, monkeypatch):
        """The satellite stress suite: reader threads hammer ``text`` /
        ``stats`` / ``query`` while a writer flushes the whole batch
        sequence; every observation must byte-match the baseline
        timeline at the version it reports, and per-reader versions
        must be monotone (a published version never un-publishes)."""
        rounds = 25
        with DocumentStore(backend="serial") as probe:
            probe.open("d", DOC)
            specs = _batch_specs(probe.document("d"), rounds)
        timeline = _baseline_timeline(specs)

        real_apply = store_module.apply_batch_in_place

        def slowed_apply(document, labeling, pul, preserve_ids=True):
            time.sleep(0.002)  # widen the apply window the readers race
            return real_apply(document, labeling, pul,
                              preserve_ids=preserve_ids)

        monkeypatch.setattr(store_module, "apply_batch_in_place",
                            slowed_apply)

        with DocumentStore(backend="serial") as store:
            store.open("d", DOC)
            stop = threading.Event()
            mismatches = []
            histories = [[] for _ in range(3)]

            def read_loop(history):
                while not stop.is_set():
                    text, version = store.text_version("d")
                    if timeline[version] != text:
                        mismatches.append(("text", version))
                    snap = store.stats("d")
                    if snap["version"] not in timeline:
                        mismatches.append(("stats", snap["version"]))
                    history.append(version)

            readers = [threading.Thread(target=read_loop, args=(h,),
                                        daemon=True) for h in histories]
            for reader in readers:
                reader.start()
            for spec in specs:
                store.submit("d", PUL([Rename(t, name)
                                       for t, name in spec]))
                store.flush("d")
            stop.set()
            for reader in readers:
                reader.join(10)
                assert not reader.is_alive(), "a reader blocked"

            assert not mismatches
            assert store.text("d") == timeline[rounds]
            observed = set().union(*histories)
            assert len(observed) >= 2, "the race never materialized"
            for history in histories:
                assert history == sorted(history), \
                    "a reader observed versions out of order"

    def test_reads_complete_while_a_flush_is_applying(self, monkeypatch):
        """No blocking: a read issued while the writer is mid-apply
        finishes *before* the flush does, reporting the still-current
        published version."""
        with DocumentStore(backend="serial") as store:
            store.open("d", DOC)
            before = store.text("d")
            title = _id_of(store.document("d"), "title")
            store.submit("d", PUL([Rename(title, "headline")]))
            window = _StalledApplyWindow(monkeypatch)

            flusher = threading.Thread(target=store.flush, args=("d",),
                                       daemon=True)
            flusher.start()
            assert window.in_window.wait(10)

            results = {}

            def read_everything():
                results["text"] = store.text_version("d")
                results["stats"] = store.stats("d")
                results["query"] = store.query("d", "/bib/note")

            reader = threading.Thread(target=read_everything, daemon=True)
            reader.start()
            reader.join(5)
            blocked = reader.is_alive()
            window.release.set()
            flusher.join(10)
            reader.join(10)
            assert not blocked, "reads blocked behind an applying flush"
            assert results["text"] == (before, 0)
            assert results["stats"]["version"] == 0
            assert results["query"]["version"] == 0
            assert store.version("d") == 1


class TestVersionPinning:
    def test_pinned_version_is_immutable_across_later_flushes(self):
        """A pinned version's tree never changes — even though retired
        versions are normally recycled into the next working copy, a
        live pin forces the writer onto the deep-copy fallback."""
        with DocumentStore(backend="serial") as store:
            store.open("d", DOC)
            entry = store._entries["d"]
            pinned = entry.pin()
            text0 = serialize(pinned.document)
            title = _id_of(store.document("d"), "title")
            for i in range(3):
                store.submit("d", PUL([Rename(title, "v{}".format(i))]))
                store.flush("d")
            assert store.version("d") == 3
            # the reader's world has not moved
            assert pinned.version == 0
            assert serialize(pinned.document) == text0
            entry.unpin(pinned)
            assert "<v2>" in store.text("d")

    def test_recycled_working_copy_matches_a_fresh_deep_copy(self):
        """The spare-recycling catch-up must be byte- and id-identical
        to what a from-scratch copy of the published version yields —
        consecutive unpinned flushes exercise exactly that path, and
        the inserts make the catch-up's deterministic fresh-id
        assignment observable (a replay allocating different ids would
        desynchronize every later batch's targets)."""
        with DocumentStore(backend="serial") as store:
            store.open("d", DOC)
            title = _id_of(store.document("d"), "title")
            for i in range(4):
                store.submit("d", PUL([Rename(title, "r{}".format(i))]))
                store.submit_xquery(
                    "d", "insert node <w{0}/> as last into /bib".format(i))
                store.flush("d")
            entry = store._entries["d"]
            document, labeling = entry.checkout()
            published = entry.published
            assert serialize(document) == store.text("d")
            assert sorted(document.node_ids()) \
                == sorted(published.document.node_ids())
            assert labeling.as_mapping() \
                == published.labeling.as_mapping()


class TestCaptureFence:
    def test_wait_published_times_out_on_a_stalled_writer(self):
        with DocumentStore(backend="serial") as store:
            store.open("d", DOC)
            entry = store._entries["d"]
            entry.mark_logged(entry.version + 1)
            with pytest.raises(DurabilityError, match="never published"):
                entry.wait_published(0.1)
            # unwind so close() paths stay clean
            entry.mark_logged(entry.version)

    def test_snapshot_waits_for_the_logged_batch_to_publish(
            self, tmp_path, monkeypatch):
        """Compaction during a mid-apply flush: the capture must wait
        out the logged-but-unpublished batch (a snapshot pairing the
        rotated log with a pre-batch payload would be fine — leading
        only — but one *missing an acked record* would not), and the
        compacted directory must recover to the post-batch state."""
        wal_dir = str(tmp_path / "wal")
        with DocumentStore(backend="serial", durability="log",
                           wal_dir=wal_dir) as store:
            store.open("d", DOC)
            title = _id_of(store.document("d"), "title")
            store.submit("d", PUL([Rename(title, "headline")]))
            window = _StalledApplyWindow(monkeypatch)

            flusher = threading.Thread(target=store.flush, args=("d",),
                                       daemon=True)
            flusher.start()
            assert window.in_window.wait(10)

            generations = []
            snapshotter = threading.Thread(
                target=lambda: generations.append(store.snapshot()),
                daemon=True)
            snapshotter.start()
            snapshotter.join(0.5)
            assert snapshotter.is_alive(), \
                "snapshot captured a logged-but-unpublished batch"
            window.release.set()
            flusher.join(10)
            snapshotter.join(10)
            assert not snapshotter.is_alive()
            assert generations and generations[0] is not None
            final = store.text("d")
        with DocumentStore(backend="serial", durability="log",
                           wal_dir=wal_dir) as recovered:
            assert recovered.text("d") == final
            assert recovered.version("d") == 1

    def test_a_failed_batch_releases_the_captures_it_parked(
            self, tmp_path, monkeypatch):
        """A batch that is logged and then fails to apply owes no
        publish: the failure clamps the fence back, and a capture that
        was waiting on it is handed the published version — the very
        one from before the flush, since the failure changed nothing."""
        from repro.errors import ReproError
        from repro.pul.ops import InsertAttributes
        from repro.xdm.node import Node

        with DocumentStore(backend="serial", durability="log",
                           wal_dir=str(tmp_path / "wal")) as store:
            entry = store.open("d", DOC)
            published = entry.published
            paper = _id_of(store.document("d"), "paper")
            for client in ("alice", "bob"):     # a duplicate attribute
                store.submit("d", PUL([InsertAttributes(
                    paper, [Node.attribute("dup", client)])]),
                    client=client)
            window = _StalledApplyWindow(monkeypatch)

            failures = []

            def flush():
                try:
                    store.flush("d")
                except ReproError as error:
                    failures.append(error)

            flusher = threading.Thread(target=flush, daemon=True)
            flusher.start()
            assert window.in_window.wait(10)
            assert store.stats("d")["pending_batches"] == 1

            captured = []
            capture = threading.Thread(
                target=lambda: captured.append(entry.wait_published(10)),
                daemon=True)
            capture.start()
            capture.join(0.3)
            assert capture.is_alive(), \
                "capture did not wait for the logged batch"
            window.release.set()
            flusher.join(10)
            capture.join(10)
            assert failures and not capture.is_alive()
            assert captured == [published]
            entry.unpin(published)
            assert entry.published is published
            stats = store.stats("d")
            assert (stats["pending"], stats["pending_batches"]) == (2, 0)
