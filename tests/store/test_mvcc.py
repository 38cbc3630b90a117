"""MVCC snapshot-tree semantics: store-README invariant 9.

Every read observes exactly one *published* version — never a torn
intermediate, never a blend of two versions — and writes never block
reads. The oracle is :class:`StatelessBaseline`: the same batch
sequence is run through the baseline first, recording the serialized
text of every published version; any ``(version, text)`` pair a
concurrent reader then observes from the MVCC store must byte-match
that timeline.
"""

import gc
import sys
import threading
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.store.reads as reads_module
import repro.store.store as store_module
from repro.apply.inplace import apply_batch_in_place
from repro.errors import DurabilityError, ReproError
from repro.pul.ops import Rename
from repro.pul.pul import PUL
from repro.store import DocumentStore, StatelessBaseline
from repro.store.versions import answer_size
from repro.xdm.parser import parse_document
from repro.xdm.serializer import serialize

DOC = ("<bib><paper><title>T1</title><authors><author>A</author>"
       "</authors></paper><paper><title>T2</title></paper>"
       "<note>n</note></bib>")
#: a different document under the same ids, for close + re-open
OTHER_DOC = ("<bib><paper><title>Z</title><authors><author>B</author>"
             "<author>C</author></authors></paper><note>m</note></bib>")


def _id_of(document, name):
    return next(n.node_id for n in document.nodes()
                if n.is_element and n.name == name)


def _parents(document):
    """What ``document``'s parent map answers for every node of its
    tree."""
    return {node.node_id: document.parent_id(node.node_id)
            for node in document.nodes()}


def _walked_parents(document):
    """Every node's parent id, from ``document``'s tree alone."""
    return {node.node_id: None if parent is None else parent.node_id
            for node, parent in document.root.iter_with_parents()}


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
    baseline = StatelessBaseline()
    baseline.open("d", DOC)
    timeline = {0: baseline.text("d")}
    for spec in specs:
        baseline.submit("d", PUL([Rename(t, name) for t, name in spec]))
        baseline.flush("d")
        timeline[baseline.version("d")] = baseline.text("d")
    return timeline


class _StalledApplyWindow:
    """Patch the batch applier to park mid-flush: the flush signals
    ``in_window`` mid-apply, with nothing logged or published yet, and
    only proceeds once ``release`` is set."""

    def __init__(self, monkeypatch):
        self.in_window = threading.Event()
        self.release = threading.Event()
        real_apply = store_module.apply_batch_in_place

        def stalled_apply(document, labeling, pul, **options):
            self.in_window.set()
            self.release.wait(10)
            return real_apply(document, labeling, pul,
                              **options)

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
        with DocumentStore() as probe:
            probe.open("d", DOC)
            specs = _batch_specs(probe.document("d"), rounds)
        timeline = _baseline_timeline(specs)

        real_apply = store_module.apply_batch_in_place

        def slowed_apply(document, labeling, pul, **options):
            time.sleep(0.002)  # widen the apply window the readers race
            return real_apply(document, labeling, pul,
                              **options)

        monkeypatch.setattr(store_module, "apply_batch_in_place",
                            slowed_apply)

        with DocumentStore() as store:
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
        with DocumentStore() as store:
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


class _StalledLogWindow:
    """Patch ``store``'s log append to park mid-flush: the flush signals
    ``in_window`` with the batch's logged-version fence raised and the
    batch not yet published — its record appended, or with ``refuse``
    about to be refused by the log — and only proceeds once ``release``
    is set."""

    def __init__(self, monkeypatch, store, refuse=False):
        self.in_window = threading.Event()
        self.release = threading.Event()
        manager = store._durability
        real_append = manager.append

        def stalled_append(records):
            if not refuse:
                real_append(records)
            self.in_window.set()
            self.release.wait(10)
            if refuse:
                raise DurabilityError("the log refused the record")

        monkeypatch.setattr(manager, "append", stalled_append)


class TestVersionPinning:
    def test_pinned_version_is_immutable_across_later_flushes(self):
        """A held version's tree never changes: every later flush
        path-copies the version it derives from and edits the copy."""
        with DocumentStore() as store:
            store.open("d", DOC)
            held = store._entries["d"].published
            text0 = serialize(held.document)
            title = _id_of(store.document("d"), "title")
            for i in range(3):
                store.submit("d", PUL([Rename(title, "v{}".format(i))]))
                store.flush("d")
            assert store.version("d") == 3
            # the reader's world has not moved
            assert held.version == 0
            assert serialize(held.document) == text0
            assert "<v2>" in store.text("d")

    def test_path_copied_pair_matches_a_fresh_deep_copy(self):
        """The writer's path-copied working pair is byte-, id- and
        label-identical to a from-scratch deep copy of the published
        version; it shares every node off the copied paths, both
        documents give every node the parent its own tree gives it, and
        after an abandon the published version answers as before."""
        from repro.apply.inplace import classify
        from repro.xquery import compile_pul

        with DocumentStore() as store:
            store.open("d", DOC)
            title = _id_of(store.document("d"), "title")
            for i in range(4):
                store.submit("d", PUL([Rename(title, "r{}".format(i))]))
                store.submit_xquery(
                    "d", "insert node <w{0}/> as last into /bib".format(i))
                store.flush("d")
            entry = store._entries["d"]
            published = entry.published
            fresh = published.document.copy()
            pul = compile_pul('rename node /bib/paper[1]/authors/author '
                              'as "writer"', published.document)
            footprint = classify(published.document, pul)
            document, labeling = entry.checkout(footprint)
            assert serialize(document, with_ids=True) \
                == serialize(fresh, with_ids=True)
            assert sorted(document.node_ids()) \
                == sorted(published.document.node_ids())
            assert labeling.as_mapping() \
                == published.labeling.as_mapping()
            assert labeling is not published.labeling
            assert document.allocator.next_value \
                == published.document.allocator.next_value
            copied = {node.node_id for node in published.document.nodes()
                      if document.get(node.node_id) is not node}
            # the renamed node and its ancestors, nothing else
            assert copied == {_id_of(published.document, name)
                              for name in ("bib", "paper", "authors",
                                           "author")}
            answers = _parents(published.document)
            assert answers == _walked_parents(published.document)
            assert _parents(document) == _walked_parents(document)
            apply_batch_in_place(document, labeling, pul,
                                 footprint=footprint)
            assert _parents(document) == _walked_parents(document)
            entry.abandon()
            assert entry.published is published
            assert _parents(published.document) == answers
            assert serialize(published.document) == store.text("d")


class TestCaptureFence:
    def test_wait_published_times_out_on_a_stalled_writer(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            entry = store._entries["d"]
            entry.mark_logged(entry.published.version + 1)
            with pytest.raises(DurabilityError, match="never published"):
                entry.wait_published(0.1)
            # unwind so close() paths stay clean
            entry.mark_logged(entry.published.version)

    def test_snapshot_waits_for_the_logged_batch_to_publish(
            self, tmp_path, monkeypatch):
        """Compaction while a flush stands between its append and its
        publish: the capture must wait out the logged-but-unpublished
        batch (a snapshot pairing the rotated log with a post-batch
        payload would be fine — leading only — but one *missing an
        acked record* would not), and the compacted directory must
        recover to the post-batch state."""
        wal_dir = str(tmp_path / "wal")
        with DocumentStore(durability="log",
                           wal_dir=wal_dir) as store:
            store.open("d", DOC)
            title = _id_of(store.document("d"), "title")
            store.submit("d", PUL([Rename(title, "headline")]))
            window = _StalledLogWindow(monkeypatch, store)

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
        with DocumentStore(durability="log",
                           wal_dir=wal_dir) as recovered:
            assert recovered.text("d") == final
            assert recovered.version("d") == 1

    def test_a_refused_append_releases_the_captures_it_parked(
            self, tmp_path, monkeypatch):
        """A batch whose record the log refuses owes no publish: the
        refusal clamps the fence back, and a capture that was waiting
        on it is handed the published version — the very one from
        before the flush, since the refusal changed nothing. (A batch
        that fails to apply never raises the fence: it is refused
        before the log.)"""
        from repro.store.durability import load_durable_state

        wal_dir = str(tmp_path / "wal")
        with DocumentStore(durability="log",
                           wal_dir=wal_dir) as store:
            entry = store.open("d", DOC)
            published = entry.published
            title = _id_of(store.document("d"), "title")
            store.submit("d", PUL([Rename(title, "headline")]))
            window = _StalledLogWindow(monkeypatch, store, refuse=True)

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
            assert isinstance(failures[0], DurabilityError)
            assert captured == [published]
            assert entry.published is published
            stats = store.stats("d")
            assert (stats["pending"], stats["pending_batches"]) == (1, 0)
        assert [record["kind"] for record in load_durable_state(
            wal_dir, repair=False).records] == ["open"]


class TestVersionTextMemo:
    """A version's text is serialized once, is never stale, and never
    outlives the version's time as the published one."""

    def test_text_is_the_published_tree_after_every_publish(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            entry = store._entries["d"]
            baseline = StatelessBaseline()
            baseline.open("d", DOC)
            for spec in _batch_specs(store.document("d"), 5):
                for executor in (store, baseline):
                    executor.submit("d", PUL(
                        [Rename(t, name) for t, name in spec]))
                    executor.flush("d")
                assert entry.published.text is None   # born without one
                first = store.text("d")
                assert first == serialize(entry.published.document)
                assert first == baseline.text("d")
                # asked again: the very same string, not a second one
                assert store.text("d") is first
                assert entry.published.text is first

    def test_export_and_text_share_the_one_memo(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            exported = store.export_state(form="xml")["docs"][0]["text"]
            assert store.text("d") is exported
            assert store.text_version("d") == (exported, 0)

    def test_a_retired_version_keeps_no_text(self):
        """A reader that held N before a flush still reads N's text
        after N retired — and then nothing reachable from the entry
        holds it: a document keeps one text, however many retired
        versions readers still hold."""
        with DocumentStore() as store:
            store.open("d", DOC)
            entry = store._entries["d"]
            text0 = store.text("d")
            held = entry.published
            assert held.text is text0
            title = _id_of(store.document("d"), "title")
            store.submit("d", PUL([Rename(title, "renamed")]))
            store.flush("d")
            assert entry.published is not held
            assert held.text is None            # cleared, not just unread
            assert entry.published.text is None
            # the holding reader still gets N's bytes, and leaves none
            assert store._version_text(entry, held) == text0
            assert held.text is None
            assert "<renamed>" in store.text("d")
            assert entry.published.text is not None
            assert held.text is None

    def test_a_write_heavy_document_never_holds_a_text(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            entry = store._entries["d"]
            for spec in _batch_specs(store.document("d"), 4):
                retired = entry.published
                store.submit("d", PUL(
                    [Rename(t, name) for t, name in spec]))
                store.flush("d")
                assert entry.published.text is None
                assert retired.text is None

    def test_a_failed_batch_leaves_the_memo_valid(self):
        from repro.errors import ReproError
        from repro.pul.ops import InsertAttributes
        from repro.xdm.node import Node

        with DocumentStore() as store:
            store.open("d", DOC)
            entry = store._entries["d"]
            text0 = store.text("d")
            paper = _id_of(store.document("d"), "paper")
            for client in ("alice", "bob"):     # a duplicate attribute
                store.submit("d", PUL([InsertAttributes(
                    paper, [Node.attribute("dup", client)])]),
                    client=client)
            with pytest.raises(ReproError):
                store.flush("d")
            assert entry.published.text is text0
            assert store.text("d") is text0
            assert text0 == serialize(entry.published.document)

    def test_threaded_readers_never_see_a_stale_text(self):
        """Readers hammer ``text`` while the writer publishes: every
        ``(text, version)`` pair is on the baseline's timeline."""
        specs = _batch_specs(parse_document(DOC), 25)
        timeline = _baseline_timeline(specs)
        with DocumentStore() as store:
            store.open("d", DOC)
            stop = threading.Event()
            wrong = []

            def reader():
                while not stop.is_set():
                    text, version = store.text_version("d")
                    if timeline[version] != text:
                        wrong.append(version)

            readers = [threading.Thread(target=reader, daemon=True)
                       for __ in range(4)]
            for thread in readers:
                thread.start()
            for spec in specs:
                store.submit("d", PUL(
                    [Rename(t, name) for t, name in spec]))
                store.flush("d")
            stop.set()
            for thread in readers:
                thread.join(10)
                assert not thread.is_alive()
            assert not wrong
            assert store.text("d") == timeline[len(specs)]


def _ast_dump(node):
    """Every attribute of a parsed path, recursively, as plain data."""
    if isinstance(node, (list, tuple)):
        return [_ast_dump(item) for item in node]
    slots = getattr(type(node), "__slots__", None)
    if slots is None:
        return node
    return (type(node).__name__,
            [(name, _ast_dump(getattr(node, name))) for name in slots])


class TestPathMemo:
    @staticmethod
    def _outcomes(store):
        """``(hits, misses, uncached)`` as the store counted them."""
        return tuple(store._path_cache[result].value
                     for result in ("hit", "miss", "uncached"))

    def test_a_repeated_path_is_the_identical_tree(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            store.query("d", "//title")
            first = store._parsed_path("//title")
            assert self._outcomes(store) == (1, 1, 0)
            store.query("d", "//title")
            assert store._parsed_path("//title") is first

    def test_evaluation_never_mutates_the_shared_tree(self):
        """The memo hands one tree to every evaluation: planner, index
        engine and walker must only read it."""
        paths = ['//paper[title = "T1"]/authors/author', "//paper[1]/title",
                 "//paper[authors[author]]", "/bib/*/title/text()",
                 "//@*", "//paper[last()]"]
        with DocumentStore() as store:
            store.open("d", DOC)
            for path in paths:
                parsed = store._parsed_path(path)
                before = _ast_dump(parsed)
                for engine in ("auto", "index", "walk"):
                    store.query("d", path, engine=engine)
                store.explain("d", path)
                assert store._parsed_path(path) is parsed
                assert _ast_dump(parsed) == before
            assert self._outcomes(store) == (5 * len(paths), len(paths), 0)

    def test_a_syntax_error_is_never_cached(self):
        from repro.errors import QuerySyntaxError

        with DocumentStore() as store:
            store.open("d", DOC)
            for __ in range(2):
                with pytest.raises(QuerySyntaxError):
                    store.query("d", "//title[")
            assert store._paths.cache_info().currsize == 0
            with pytest.raises(QuerySyntaxError, match="not int"):
                store.query("d", 7)

    def test_a_long_path_is_never_kept(self):
        from repro.xquery.parser import MAX_CACHED_PATH_CHARS

        at_bound = "//" + "t" * (MAX_CACHED_PATH_CHARS - 2)
        with DocumentStore() as store:
            store.open("d", DOC)
            store._parsed_path(at_bound)
            store._parsed_path(at_bound)
            assert self._outcomes(store) == (1, 1, 0)
            for __ in range(2):
                store._parsed_path(at_bound + "t")
            assert self._outcomes(store) == (1, 1, 2)
            assert store._paths.cache_info().currsize == 1
            assert store.query("d", at_bound + "t")["count"] == 0

    def test_distinct_paths_leave_a_constant_number_of_entries(self):
        from repro.xquery.parser import PATH_MEMO_ENTRIES

        with DocumentStore() as store:
            store.open("d", DOC)
            for number in range(10000):
                store._parsed_path("//t{}".format(number))
            assert store._paths.cache_info().currsize == PATH_MEMO_ENTRIES
            # least recently used went first: the newest are all kept
            store._parsed_path("//t9999")
            assert self._outcomes(store) == (1, 10000, 0)
            store._parsed_path("//t0")
            assert self._outcomes(store) == (1, 10001, 0)

    def test_lookups_are_counted(self):
        """A planned query asks the answer memo first and parses only
        what it missed; a forced engine parses without asking it."""
        with DocumentStore() as store:
            store.open("d", DOC)
            store.open("e", DOC)
            for __ in range(3):
                store.query("d", "//title")
            store.query("e", "//title")
            store.query("d", "//title", engine="walk")
            store.query("d", "//title" + " " * 80)
            store.text("d")
            store.text("d")
            counters = store.metrics_snapshot()["counters"]
            assert counters[
                'repro_store_answer_cache_total{result="hit"}'] == 2
            assert counters[
                'repro_store_answer_cache_total{result="miss"}'] == 2
            assert counters[
                'repro_store_answer_cache_total{result="unkept"}'] == 1
            assert counters[
                'repro_store_path_cache_total{result="hit"}'] == 2
            assert counters[
                'repro_store_path_cache_total{result="miss"}'] == 1
            assert counters[
                'repro_store_path_cache_total{result="uncached"}'] == 1
            assert counters[
                'repro_store_text_cache_total{result="hit"}'] == 1
            assert counters[
                'repro_store_text_cache_total{result="miss"}'] == 1


#: paths the answer-memo tests read: element, text, predicate,
#: positional and wildcard steps — indexed, mixed and walker routes
MEMO_PATHS = ["//title", "/bib/paper/title", "//author",
              "/bib/note/text()", "//paper[title]", "/bib/*[1]", "//*"]
#: writes that compile to one operation on DOC and OTHER_DOC alike, at
#: any point of a schedule (a rename keeps /bib/*[1] the first child)
MEMO_WRITES = ["insert node <title>t{}</title> as last into /bib",
               'replace value of node /bib/note with "v{}"',
               'rename node /bib/*[1] as "x{}"']


def _write(store, doc_id, number):
    """One write; the version it retires keeps no memo."""
    retired = store._entries[doc_id].published
    store.submit_xquery(
        doc_id, MEMO_WRITES[number % len(MEMO_WRITES)].format(number))
    store.flush(doc_id)
    assert retired.answers is None and retired.text is None


def _assert_memo_accounting(store):
    """Only published versions hold answers; each one's byte count is
    what its answers hold, and the store's count — and gauge — is their
    sum, within the budget."""
    held = 0
    for entry in store._entries.values():
        version = entry.published
        assert version.answer_bytes == sum(
            answer_size(path, nodes)
            for path, nodes in version.answers.items())
        held += version.answer_bytes
    assert store._answer_bytes == held <= reads_module.ANSWER_MEMO_BYTES
    assert store.metrics_snapshot()["gauges"][
        "repro_store_answer_memo_bytes"] == held


def _answer_counts(store):
    """``(hits, misses, unkept)`` as the store counted them."""
    counters = store.metrics_snapshot()["counters"]
    return tuple(counters['repro_store_answer_cache_total{{result="{}"}}'
                          .format(result)]
                 for result in ("hit", "miss", "unkept"))


_STEPS = st.lists(st.tuples(
    st.sampled_from(["write", "read", "hold", "reopen"]),
    st.integers(0, 1), st.integers(0, len(MEMO_PATHS) - 1)), max_size=30)


class TestAnswerMemo:
    """A version's query answers are evaluated once, are never stale,
    and live exactly as long as its text may (the text memo's rule)."""

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS,
           budget=st.sampled_from([0, 700, reads_module.ANSWER_MEMO_BYTES]))
    @example(steps=[("read", 0, 0), ("reopen", 0, 0), ("read", 0, 0)],
             budget=reads_module.ANSWER_MEMO_BYTES)
    @example(steps=[("read", 1, 6), ("hold", 1, 6), ("read", 1, 6)],
             budget=reads_module.ANSWER_MEMO_BYTES)
    def test_a_memoized_answer_is_never_stale(self, steps, budget):
        """Writes, repeated reads, a reader holding a version across the
        publish that retires it, and close + re-open of an id with
        another document (its version restarts at 0): every answer
        equals the walker's at the version it reports."""
        with mock.patch.object(reads_module, "ANSWER_MEMO_BYTES", budget), \
                DocumentStore() as store:
            sources = {"a": DOC, "b": DOC}
            for doc_id, source in sources.items():
                store.open(doc_id, source)
            for kind, slot, number in steps:
                doc_id, path = "ab"[slot], MEMO_PATHS[number]
                if kind == "write":
                    _write(store, doc_id, number)
                elif kind == "read":
                    for __ in range(2):     # a hit once the first is kept
                        assert store.query(doc_id, path) == store.query(
                            doc_id, path, engine="walk")
                elif kind == "hold":
                    entry = store._entries[doc_id]
                    held = entry.published
                    store.query(doc_id, path)   # kept on `held`
                    _write(store, doc_id, number)
                    assert held.answers is None
                    nodes, __ = store._version_answer(entry, held, path)
                    assert nodes == store._evaluate(held, path, "walk")[0]
                    assert held.answers is None
                else:
                    store.close_document(doc_id)
                    sources[doc_id] = (OTHER_DOC if sources[doc_id] == DOC
                                       else DOC)
                    store.open(doc_id, sources[doc_id])
                _assert_memo_accounting(store)

    def test_threaded_readers_never_see_a_stale_answer(self):
        """Readers hammer ``query`` while the writer publishes one
        document and closes and re-opens another, with a budget that
        fills: every answer is the walker's at its version, and the
        byte count is exact afterwards."""
        specs = _batch_specs(parse_document(DOC), 25)
        timeline = _baseline_timeline(specs)
        with DocumentStore() as oracle:
            for version, text in timeline.items():
                oracle.open(version, text)
            expected = {
                version: {path: oracle.query(version, path,
                                             engine="walk")["nodes"]
                          for path in MEMO_PATHS}
                for version in timeline}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(reads_module, "ANSWER_MEMO_BYTES",
                                   3000), \
                    DocumentStore() as store:
                store.open("d", DOC)
                store.open("e", DOC)
                stop = threading.Event()
                wrong = []

                def reader():
                    while not stop.is_set():
                        for path in MEMO_PATHS:
                            answer = store.query("d", path)
                            if answer["nodes"] != \
                                    expected[answer["version"]][path]:
                                wrong.append((answer["version"], path))
                            try:
                                answer = store.query("e", path)
                            except ReproError:
                                continue    # between close and re-open
                            if answer["nodes"] != expected[0][path]:
                                wrong.append(("e", path))
                            if store._answer_bytes > 3000:
                                wrong.append("over budget")

                readers = [threading.Thread(target=reader, daemon=True)
                           for __ in range(4)]
                for thread in readers:
                    thread.start()
                for spec in specs:
                    store.submit("d", PUL(
                        [Rename(t, name) for t, name in spec]))
                    store.flush("d")
                    store.close_document("e")
                    store.open("e", DOC)
                stop.set()
                for thread in readers:
                    thread.join(10)
                    assert not thread.is_alive()
                assert not wrong
                hits, misses, unkept = _answer_counts(store)
                assert hits and misses
                _assert_memo_accounting(store)
        finally:
            sys.setswitchinterval(interval)

    def test_only_a_planned_unexplained_short_query_reads_the_memo(self):
        """A forged memo entry shows which reads consult the memo:
        ``explain``, a forced engine and a long path never do."""
        from repro.xquery.parser import MAX_CACHED_PATH_CHARS

        padded = "//title" + " " * MAX_CACHED_PATH_CHARS
        with DocumentStore() as store:
            store.open("d", DOC)
            expected = store.query("d", "//title")["nodes"]
            answers = store._entries["d"].published.answers
            answers["//title"] = answers[padded] = ("<forged/>",)
            assert store.query("d", "//title")["nodes"] == ["<forged/>"]
            for engine in ("walk", "index"):
                assert store.query("d", "//title",
                                   engine=engine)["nodes"] == expected
            assert store.query("d", "//title",
                               explain=True)["nodes"] == expected
            assert store.explain("d", "//title")["count"] == len(expected)
            assert store.query("d", padded)["nodes"] == expected
            assert set(answers) == {"//title", padded}

    def test_a_returned_list_is_the_callers_own(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            first = store.query("d", "//title")
            expected = list(first["nodes"])
            first["nodes"][0] = "<forged/>"
            first["nodes"].append("<forged/>")
            second = store.query("d", "//title")
            assert second["nodes"] == expected
            second["nodes"].clear()
            assert store.query("d", "//title")["nodes"] == expected
            assert _answer_counts(store) == (2, 1, 0)


class TestAnswerBudget:
    def test_the_budget_holds_and_comes_back_on_close(self):
        with mock.patch.object(reads_module, "ANSWER_MEMO_BYTES", 2000), \
                DocumentStore() as store:
            doc_ids = ["d{}".format(number) for number in range(6)]
            for doc_id in doc_ids:
                store.open(doc_id, DOC)
            kept_by_the_first = None
            for doc_id in doc_ids:
                for path in MEMO_PATHS:
                    store.query(doc_id, path)
                    assert store._answer_bytes <= 2000
                if kept_by_the_first is None:
                    kept_by_the_first = _answer_counts(store)[1]
            hits, misses, unkept = _answer_counts(store)
            assert misses > kept_by_the_first and unkept
            assert store._answer_bytes == sum(
                stats["answer_memo_bytes"] for stats in store.stats())
            _assert_memo_accounting(store)
            for doc_id in doc_ids:
                store.close_document(doc_id)
            assert store._answer_bytes == 0
            _assert_memo_accounting(store)
            # the whole budget is there again
            store.open("d", DOC)
            for path in MEMO_PATHS:
                store.query("d", path)
            assert _answer_counts(store)[1] == misses + kept_by_the_first

    def test_a_replayed_close_and_a_rebootstrap_hand_back(self, tmp_path):
        """The two other ways an entry leaves a store: a ``close``
        record applied by a replica, and a re-bootstrap replacing every
        entry."""
        from repro.cluster import ReplicaStore
        from repro.cluster.tokens import decode_token

        with DocumentStore(durability="log",
                           wal_dir=str(tmp_path / "wal")) as leader:
            source = leader.enable_replication()
            anchor = source.tail_token()
            leader.open("a", DOC)
            leader.open("b", DOC)
            leader.close_document("a")
            events = source.read(from_token=anchor, decode=False,
                                 max_events=10)["events"]
            page = leader.export_state(form="state")
        assert len(events) == 3
        stream, seq = decode_token(anchor)
        with ReplicaStore() as replica:
            replica.bootstrap([], seq, stream=stream)
            replica.apply_records({"events": events[:2],
                                   "token": events[1]["token"]})
            for doc_id in ("a", "b"):
                replica.query(doc_id, "//title")
            held = replica.stats("b")["answer_memo_bytes"]
            assert replica._answer_bytes == 2 * held > 0
            replica.apply_records({"events": events[2:],
                                   "token": events[2]["token"]})
            assert replica.doc_ids() == ["b"]
            assert replica._answer_bytes == held
            replica.bootstrap(page["docs"], page["seq"],
                              stream=page["stream"])
            assert replica._answer_bytes == 0
            replica.query("b", "//title")
            assert replica._answer_bytes == held
            _assert_memo_accounting(replica)

    def test_an_answer_larger_than_what_is_left_is_served_not_kept(self):
        with DocumentStore() as store:
            store.open("d", DOC)
            room = answer_size("//note", tuple(store.query(
                "d", "//note")["nodes"]))
        with mock.patch.object(reads_module, "ANSWER_MEMO_BYTES", room), \
                DocumentStore() as store:
            store.open("d", DOC)
            store.query("d", "//note")
            assert store._answer_bytes == room
            for __ in range(2):
                assert store.query("d", "//*") == store.query(
                    "d", "//*", engine="walk")
            assert set(store._entries["d"].published.answers) \
                == {"//note"}
            assert _answer_counts(store) == (0, 1, 2)
            _assert_memo_accounting(store)


#: the document the held-version schedule edits, and what it reads of
#: every version: walker and index routes, predicates included
PIN_DOC = ('<r><p k="v">t<q/></p><p><q>u</q><s k="w">x</s></p>'
           '<s/></r>')
PIN_PATHS = ["//p[q]", '//*[@k = "v"]', "//text()", "/r/p[2]/*", "//@k",
             "//q"]
PIN_UPDATE = 'insert node <z/> as last into /*, delete node //p[q]/q'
#: schedule steps; ``number`` picks the target among eligible nodes
_PIN_STEPS = st.lists(st.tuples(
    st.sampled_from(["insert", "before", "attribute", "delete", "rename",
                     "value", "children", "relabel", "fail", "hold",
                     "drop"]),
    st.integers(0, 60)), max_size=24)


def _pin_op(document, kind, number):
    """One operation of ``kind`` on the ``number``-th eligible node of
    ``document``, or ``None`` when no node is eligible."""
    from repro.pul.ops import (
        Delete,
        InsertAttributes,
        InsertBefore,
        InsertIntoAsLast,
        ReplaceChildren,
        ReplaceValue,
    )
    from repro.xdm.node import Node

    nodes = list(document.nodes())
    eligible = {
        "insert": [node for node in nodes if node.is_element],
        "before": [node for node in nodes[1:] if not node.is_attribute],
        "attribute": [node for node in nodes if node.is_element],
        "delete": nodes[1:],
        "rename": [node for node in nodes if not node.is_text],
        "value": [node for node in nodes if not node.is_element],
        "children": [node for node in nodes if node.is_element],
    }[kind]
    if not eligible:
        return None
    target = eligible[number % len(eligible)].node_id
    if kind == "insert":
        fresh = Node.element("n{}".format(number))
        fresh.append_child(Node.text("i{}".format(number)))
        return InsertIntoAsLast(target, [fresh])
    if kind == "before":
        return InsertBefore(target, [Node.element("b")])
    if kind == "attribute":
        return InsertAttributes(
            target, [Node.attribute("a{}".format(number % 3), "1")])
    if kind == "delete":
        return Delete(target)
    if kind == "rename":
        return Rename(target, "m{}".format(number % 4))
    if kind == "value":
        return ReplaceValue(target, "w{}".format(number))
    return ReplaceChildren(target, "c{}".format(number))


def _version_view(store, version):
    """What a reader of ``version`` can see, computed afresh (no memo):
    its text, every path on the walker and on the index, its payload,
    and an XQuery update compiled against it."""
    from repro.pul.serialize import pul_to_xml
    from repro.store.durability import document_payload
    from repro.xquery import compile_pul

    return {
        "text": serialize(version.document),
        "walk": [store._evaluate(version, path, "walk")[0]
                 for path in PIN_PATHS],
        "index": [store._evaluate(version, path, "index")[0]
                  for path in PIN_PATHS],
        "payload": document_payload(version),
        "xquery": pul_to_xml(compile_pul(
            PIN_UPDATE, version.document, labeling=version.labeling)),
    }


class TestPinnedVersionNeverMoves:
    """Store-README invariant 9 under path copying: every flush derives
    its version from the published one by copying only the paths above
    what the batch touches, so versions share most of their nodes — and
    still, whatever a schedule of inserts, deletes, renames,
    replace-values, replace-children, full relabels and failed batches
    does afterwards, a held version reads exactly as it did when it
    was published, and the store after a failed batch is the one
    ``replay_oracle`` rebuilds from the log."""

    @settings(max_examples=50, deadline=None)
    @given(steps=_PIN_STEPS)
    @example(steps=[("hold", 0), ("fail", 0), ("rename", 3), ("hold", 0),
                    ("relabel", 5), ("delete", 2), ("children", 1)])
    @example(steps=[("fail", 1), ("rename", 4)])
    def test_a_pinned_version_never_moves(self, steps):
        import tempfile

        from repro.pul.ops import InsertAttributes
        from repro.store import replay_oracle
        from repro.xdm.node import Node

        with tempfile.TemporaryDirectory() as wal_dir, \
                DocumentStore(durability="log",
                              wal_dir=wal_dir) as store:
            entry = store.open("d", PIN_DOC)
            budget = store.max_code_length
            published = {0: _version_view(store, entry.published)}
            held = []

            def flush(puls):
                for client, pul in puls:
                    store.submit("d", pul, client=client)
                try:
                    store.flush("d")
                except ReproError:
                    store.discard_pending("d")
                    return
                published[store.version("d")] = _version_view(
                    store, entry.published)
                assert replay_oracle(wal_dir)["d"] == (
                    store.text("d"), store.version("d"))

            for kind, number in steps:
                document = store.document("d")
                if kind == "hold":
                    version = entry.published
                    held.append((version, published[version.version]))
                elif kind == "drop":
                    if held:
                        held.pop(number % len(held))
                elif kind == "fail":
                    # a duplicate attribute: found after the path copy
                    # was edited, so the batch fails on the copy
                    target = _pin_op(document, "attribute", number).target
                    flush([(client, PUL([InsertAttributes(
                        target, [Node.attribute("dup", client)])]))
                        for client in ("alice", "bob")])
                elif kind == "relabel":
                    store.max_code_length = 1   # forces a full relabel
                    try:
                        flush([("c", PUL([_pin_op(document, "insert",
                                                  number)]))])
                    finally:
                        store.max_code_length = budget
                else:
                    op = _pin_op(document, kind, number)
                    if op is not None:
                        flush([("c", PUL([op]))])
                for version, view in held:
                    assert _version_view(store, version) == view


def _live_nodes():
    """How many :class:`~repro.xdm.node.Node` objects are alive."""
    from repro.xdm.node import Node

    return sum(1 for obj in gc.get_objects() if type(obj) is Node)


class TestRetiredVersionRelease:
    """A retired version lives only while a reader holds it, and goes
    the moment the last reader drops its reference — by reference
    counting, with no help from the cyclic collector: ``publish``
    clears the parent pointers of the nodes the path copy replaced,
    so no cycle runs through the retired tree."""

    def test_a_dropped_reader_frees_its_retired_version(self):
        gc.collect()
        gc.disable()
        try:
            with DocumentStore() as store:
                store.open("d", '<r><a k="v">t</a><b/></r>')
                held = store._entries["d"].published
                others = _live_nodes() - len(held.document)
                store.submit_xquery("d", 'rename node /r/a as "x"')
                store.flush("d")
                published = store._entries["d"].published
                # the reader still has its version: the copied <r> and
                # <a> are alive beside the published tree
                assert _live_nodes() - others == len(published.document) + 2
                del held
                assert _live_nodes() - others == len(published.document)
        finally:
            gc.enable()


class TestNoWholeDocumentCopy:
    """One tree per document: the store's flush and replay paths copy
    the paths a batch touches and never a whole document — not for a
    plain flush, not after a failed batch, not while a reader holds the
    published version, and not in a restart that replays a batch
    tail — and they classify each batch once."""

    @staticmethod
    def _refuse_copies(monkeypatch, store):
        """From now on, copying a resident document, or deep-copying
        with ids any node of a published tree, raises. Parameter trees
        (deep-copied with their ids by the apply) stay copyable."""
        from repro.xdm.document import Document
        from repro.xdm.node import Node

        real_deep_copy = Node.deep_copy

        def refused(*args, **kwargs):
            raise AssertionError("a whole document was copied")

        def deep_copy(node, keep_ids=False):
            if keep_ids and any(
                    entry.published.document.find(node.node_id) is node
                    for entry in list(store._entries.values())):
                raise AssertionError("a resident tree was deep-copied")
            return real_deep_copy(node, keep_ids=keep_ids)

        monkeypatch.setattr(Document, "copy", refused)
        monkeypatch.setattr(Node, "deep_copy", deep_copy)

    def test_flush_failure_pin_and_restart_copy_no_document(
            self, tmp_path, monkeypatch):
        from repro.pul.ops import InsertAttributes, InsertIntoAsLast
        from repro.store import replay_oracle
        from repro.xdm.node import Node

        wal_dir = str(tmp_path / "wal")

        def store_at(directory):
            return DocumentStore(durability="log",
                                 wal_dir=directory)

        with store_at(wal_dir) as store:
            store.open("d", DOC)
            with monkeypatch.context() as patch:
                self._refuse_copies(patch, store)
                bib = _id_of(store.document("d"), "bib")
                title = _id_of(store.document("d"), "title")
                store.submit("d", PUL([Rename(title, "headline")]))
                store.submit("d", PUL([InsertIntoAsLast(
                    bib, [Node.element("extra")])]), client="other")
                store.flush("d")
                # a batch failing after its copy was edited
                for client in ("alice", "bob"):
                    store.submit("d", PUL([InsertAttributes(
                        bib, [Node.attribute("dup", client)])]),
                        client=client)
                with pytest.raises(ReproError):
                    store.flush("d")
                store.discard_pending("d")
                store.submit("d", PUL([Rename(title, "after")]))
                store.flush("d")
                # a flush while a reader holds the published version
                held = store._entries["d"].published
                text = serialize(held.document)
                store.submit("d", PUL([Rename(title, "pinned")]))
                store.flush("d")
                assert serialize(held.document) == text
                final = store.text("d"), store.version("d")
        assert final[1] == 3
        with monkeypatch.context() as patch:
            # the restart replays the whole log: the open and the
            # three batch records — the failed batch left none
            recovered = store_at(wal_dir)
            try:
                self._refuse_copies(patch, recovered)
                recovered.submit("d", PUL([Rename(title, "restarted")]))
                recovered.flush("d")
                assert recovered.recovery.replayed_batches == 3
                assert recovered.recovery.skipped_records == 0
                assert (recovered.text("d"), recovered.version("d")) == (
                    final[0].replace("pinned", "restarted"), 4)
            finally:
                recovered.close()
        assert replay_oracle(wal_dir)["d"] == (
            final[0].replace("pinned", "restarted"), 4)

    def test_a_flush_classifies_its_batch_once(self, monkeypatch):
        import repro.apply.inplace as inplace
        import repro.index.structural as structural
        from repro.pul.ops import Delete, InsertIntoAsLast
        from repro.xdm.node import Node

        calls = []
        real_classify = inplace.classify

        def counted(document, pul):
            calls.append(len(pul))
            return real_classify(document, pul)

        for module in (inplace, structural, store_module):
            monkeypatch.setattr(module, "classify", counted)
        with DocumentStore() as store:
            store.open("d", DOC)
            document = store.document("d")
            store.submit("d", PUL([
                Rename(_id_of(document, "title"), "headline"),
                InsertIntoAsLast(_id_of(document, "authors"),
                                 [Node.element("author")]),
                Delete(_id_of(document, "note"))]))
            result = store.flush("d")
            assert result.index_maintenance == "incremental"
            assert calls == [3]
