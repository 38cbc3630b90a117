""":class:`DocumentMirror`: byte-faithful replay, idempotent under
at-least-once redelivery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdc import ChangeFeed, DocumentMirror
from repro.errors import ClusterError
from repro.index import build_index
from repro.store import DocumentStore
from repro.xdm.node import Node

DOC = "<doc><items/><meta/></doc>"


def _label_codes(document, labeling):
    """Digit-exact label timeline of one tree: id -> (start, end)."""
    return {node.node_id: (labeling.label_of(node.node_id).start,
                           labeling.label_of(node.node_id).end)
            for node in document.nodes()}


EDITS = (
    'insert node <x/> as last into /doc/items',
    'insert node <y a="1"/> as first into /doc/items',
    'delete nodes /doc/items/*[1]',
    'replace value of node /doc/meta with "m"',
    'rename node /doc/meta as "info"',
)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A real leader session captured as raw events + expected bytes."""
    wal = tmp_path_factory.mktemp("mirror") / "wal"
    with DocumentStore(workers=1, backend="serial", durability="log",
                       wal_dir=str(wal)) as store:
        store.enable_replication()
        feed = ChangeFeed(store.replication)
        anchor = feed.tail_token()
        store.open("a", DOC)
        store.open("b", DOC)
        store.open("gone", DOC)
        for round_index in range(4):
            for doc_id in ("a", "b"):
                expr = EDITS[round_index % len(EDITS)]
                store.submit_xquery(doc_id, expr,
                                    client="c{}".format(round_index))
                store.flush(doc_id)
        store.close_document("gone")
        events = feed.read(from_token=anchor, decode=False,
                           max_events=500)["events"]
        expected = {doc_id: store.text(doc_id) for doc_id in ("a", "b")}
        # the leader's final indexes/label codes, captured while the
        # store is open (plain tuples — safe to compare after close)
        leader = {}
        for doc_id in ("a", "b"):
            version = store._entries[doc_id].published
            leader[doc_id] = (version.index,
                              _label_codes(version.document,
                                           version.labeling))
        return events, expected, leader


class TestReplay:
    def test_in_order_replay_is_byte_identical(self, trace):
        events, expected, __ = trace
        mirror = DocumentMirror()
        mirror.apply_all(events)
        assert mirror.doc_ids() == sorted(expected)
        for doc_id, text in expected.items():
            assert mirror.text(doc_id) == text

    def test_exact_duplicate_replay_is_absorbed(self, trace):
        events, expected, __ = trace
        mirror = DocumentMirror()
        assert mirror.apply_all(events) > 0
        # a full second delivery converges to the same bytes; only the
        # closed document's open/close pair re-applies (and re-absorbs)
        reapplied = mirror.apply_all(events)
        assert reapplied <= 2
        for doc_id, text in expected.items():
            assert mirror.text(doc_id) == text
        assert "gone" not in mirror.doc_ids()

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_any_at_least_once_redelivery_converges(self, trace, data):
        """Deliver the trace with random rewinds — a subscriber that
        loses its token re-receives a suffix it already applied. Any
        such schedule must converge to the same bytes."""
        events, expected, __ = trace
        mirror = DocumentMirror()
        position = 0
        steps = 0
        while position < len(events):
            mirror.apply(events[position])
            position += 1
            steps += 1
            if position < len(events) and steps < 200 and \
                    data.draw(st.booleans(), label="rewind?"):
                position = data.draw(
                    st.integers(min_value=0, max_value=position),
                    label="rewind to")
        for doc_id, text in expected.items():
            assert mirror.text(doc_id) == text
        assert "gone" not in mirror.doc_ids()


class TestGuards:
    def test_batch_without_base_state_is_typed(self, trace):
        events, __, __ = trace
        batch = next(e for e in events
                     if e["record"]["kind"] == "batch")
        with pytest.raises(ClusterError) as info:
            DocumentMirror().apply(batch)
        assert "bootstrap" in str(info.value)

    def test_version_gap_is_typed(self, trace):
        events, __, __ = trace
        mirror = DocumentMirror()
        batches = [e for e in events
                   if e["record"]["kind"] == "batch"
                   and e["record"]["doc_id"] == "a"]
        opens = [e for e in events
                 if e["record"]["kind"] == "open"
                 and e["record"]["doc"]["doc_id"] == "a"]
        mirror.apply(opens[0])
        with pytest.raises(ClusterError) as info:
            mirror.apply(batches[-1])        # skips versions 1..n-1
        assert "gap" in str(info.value)

    def test_internal_records_never_change_state(self):
        mirror = DocumentMirror()
        assert not mirror.apply({"kind": "relabel", "doc_id": "a"})
        assert not mirror.apply({"kind": "repl-pos", "pos": 9})

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ClusterError):
            DocumentMirror().apply({"kind": "mystery"})

    def test_reading_an_absent_document_is_typed(self):
        mirror = DocumentMirror()
        with pytest.raises(ClusterError):
            mirror.text("nope")
        assert mirror.version("nope") is None


class TestBootstrap:
    def test_bootstrap_pairs_with_export_state_form(self, tmp_path):
        with DocumentStore(workers=1, backend="serial",
                           durability="log",
                           wal_dir=str(tmp_path / "wal")) as store:
            store.enable_replication()
            store.open("a", DOC)
            store.submit_xquery(
                "a", 'insert node <x/> as last into /doc/items')
            store.flush("a")
            page = store.export_state(form="state")
            mirror = DocumentMirror()
            mirror.bootstrap(page["docs"])
            assert mirror.text("a") == store.text("a")
            assert mirror.version("a") == 1
            # resuming from the paired position redelivers at most
            # what the payloads already contain — absorbed, not reapplied
            feed = ChangeFeed(store.replication)
            replay = feed.read(
                from_token=None, decode=False, max_events=500)
            assert replay["events"] == []     # paired seq was the tail


def _mirror_codes(mirror, doc_id):
    return _label_codes(mirror._store.document(doc_id),
                        mirror.labeling(doc_id))


class TestIndexParity:
    """The mirror maintains the leader's labeling and secondary index
    from the stream alone."""

    def _replayed(self, events):
        mirror = DocumentMirror()
        mirror.apply_all(events)
        return mirror

    def test_in_order_replay_reproduces_the_leader_index(self, trace):
        events, expected, leader = trace
        mirror = self._replayed(events)
        for doc_id, text in expected.items():
            assert mirror.text(doc_id) == text
            leader_index, leader_codes = leader[doc_id]
            maintained = mirror.index(doc_id)
            # streamed maintenance == the leader's maintained index
            # == a from-scratch rebuild over the mirror's own tree
            assert maintained == leader_index
            assert maintained == build_index(
                mirror._store.document(doc_id), mirror.labeling(doc_id))
            # and the label timeline is digit-identical, not just
            # order-isomorphic — the leader's exact codes, replayed
            assert _mirror_codes(mirror, doc_id) == leader_codes

    @settings(deadline=None, max_examples=15)
    @given(data=st.data())
    def test_redelivery_converges_to_the_same_index(self, trace, data):
        events, expected, leader = trace
        mirror = DocumentMirror()
        position = 0
        steps = 0
        while position < len(events):
            mirror.apply(events[position])
            position += 1
            steps += 1
            if position < len(events) and steps < 200 and \
                    data.draw(st.booleans(), label="rewind?"):
                position = data.draw(
                    st.integers(min_value=0, max_value=position),
                    label="rewind to")
        for doc_id in expected:
            assert mirror.index(doc_id) == leader[doc_id][0]

    def test_mirror_queries_serve_from_the_maintained_index(self, trace):
        events, __, __ = trace
        mirror = self._replayed(events)
        for query in ("//x", "/doc/items/*", "//@a", "//info"):
            walked = mirror.query("a", query, engine="walk")
            served = mirror.query("a", query, engine="index")
            assert walked["nodes"] == served["nodes"]
        assert mirror.query("a", "//x")["version"] == \
            mirror.version("a")

    def test_close_drops_the_maintained_index(self, trace):
        events, __, __ = trace
        mirror = self._replayed(events)
        assert mirror.index("a") is not None
        mirror.apply({"kind": "close", "doc_id": "a"})
        assert mirror.index("a") is None
        assert mirror.labeling("a") is None


class TestIndexParityAcrossRelabels:
    """A tight-headroom leader fully relabels mid-stream (the headroom
    rule — nothing in the stream says so) and rejects a batch it had
    already shipped; a mirror configured with the producer's budget
    stays digit- and index-identical across both."""

    HEADROOM = 8

    @pytest.fixture(scope="class")
    def tight_trace(self, tmp_path_factory):
        wal = tmp_path_factory.mktemp("mirror-tight") / "wal"
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=str(wal),
                           max_code_length=self.HEADROOM) as store:
            store.enable_replication()
            feed = ChangeFeed(store.replication)
            anchor = feed.tail_token()
            store.open("a", DOC)
            for __ in range(6):
                store.submit_xquery(
                    "a",
                    'insert node <x k0="v"/> as first into /doc/items')
                store.flush("a")
            # a failing batch (duplicate attribute): shipped
            # write-ahead, then a no-op on leader and mirror alike
            from repro.pul.ops import InsertAttributes
            from repro.pul.pul import PUL
            from repro.errors import ReproError

            items = next(n.node_id for n in
                         store._entries["a"].published.document.nodes()
                         if n.is_element and n.name == "items")
            for serial in (9001, 9002):
                attr = Node.attribute("dup", "w", node_id=serial)
                store.submit("a", PUL([InsertAttributes(items,
                                                        [attr])]))
                try:
                    store.flush("a")
                except ReproError:
                    store.discard_pending("a")
            store.submit_xquery(
                "a", 'insert node <y/> as last into /doc/items')
            store.flush("a")
            events = feed.read(from_token=anchor, decode=False,
                               max_events=500)["events"]
            version = store._entries["a"].published
            return (events, store.text("a"), version.index,
                    _label_codes(version.document, version.labeling))

    def test_stream_carries_no_relabel_records(self, tight_trace):
        """Was ``test_stream_carries_relabel_records``: a failed batch
        no longer rebuilds labels, so there is nothing to ship."""
        events, __, __, __ = tight_trace
        kinds = {e["record"]["kind"] for e in events}
        assert kinds == {"open", "batch"}

    def test_parity_across_full_relabel_boundaries(self, tight_trace):
        events, text, leader_index, leader_codes = tight_trace
        mirror = DocumentMirror(max_code_length=self.HEADROOM)
        mirror.apply_all(events)
        assert mirror.text("a") == text
        assert mirror.index("a") == leader_index
        assert _mirror_codes(mirror, "a") == leader_codes
