"""A consumer that rebuilds documents from the change feed: a WAL-less
:class:`ReplicaStore` bootstrapped and fed raw ``subscribe`` pages by
hand. Byte-faithful replay, idempotent under at-least-once redelivery,
and the leader's labels and index maintained from the stream alone."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ReplicaStore
from repro.cluster.tokens import decode_token, encode_token
from repro.errors import ClusterError, RecoveryError, ReproError
from repro.index import build_index
from repro.store import DocumentStore
from repro.store.store import DEFAULT_MAX_CODE_LENGTH
from repro.xdm.node import Node

DOC = "<doc><items/><meta/></doc>"


def _label_codes(document, labeling):
    """Digit-exact label timeline of one tree: id -> (start, end)."""
    return {node.node_id: labeling.digits(node.node_id)
            for node in document.nodes()}


def consumer(anchor, max_code_length=DEFAULT_MAX_CODE_LENGTH,
             payloads=()):
    """A WAL-less replica installed at token ``anchor`` (with
    ``payloads``, the state the leader had there)."""
    replica = ReplicaStore(max_code_length=max_code_length)
    stream, seq = decode_token(anchor)
    replica.bootstrap(list(payloads), seq, stream=stream)
    return replica


def page_of(events):
    """The raw page a leader sends for ``events`` (non-empty)."""
    return {"events": events, "token": events[-1]["token"]}


def deliver_with_rewinds(replica, events, data):
    """One event per page, with drawn rewinds — a subscriber that loses
    its token re-receives a suffix it already applied."""
    position = steps = 0
    while position < len(events):
        replica.apply_records(page_of(events[position:position + 1]))
        position += 1
        steps += 1
        if position < len(events) and steps < 200 and \
                data.draw(st.booleans(), label="rewind?"):
            position = data.draw(
                st.integers(min_value=0, max_value=position),
                label="rewind to")


def _published(replica, doc_id):
    return replica._entries[doc_id].published


EDITS = (
    'insert node <x/> as last into /doc/items',
    'insert node <y a="1"/> as first into /doc/items',
    'delete nodes /doc/items/*[1]',
    'replace value of node /doc/meta with "m"',
    'rename node /doc/meta as "info"',
)


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    """A real leader session captured as anchor, raw events and
    expected bytes."""
    wal = tmp_path_factory.mktemp("consumer") / "wal"
    with DocumentStore(durability="log",
                       wal_dir=str(wal)) as store:
        source = store.enable_replication()
        anchor = source.tail_token()
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
        events = source.read(from_token=anchor, decode=False,
                             max_events=500)["events"]
        expected = {doc_id: store.text(doc_id) for doc_id in ("a", "b")}
        # the leader's final indexes/label codes, captured while the
        # store is open (plain tuples — safe to compare after close)
        leader = {}
        for doc_id in ("a", "b"):
            version = _published(store, doc_id)
            leader[doc_id] = (version.index,
                              _label_codes(version.document,
                                           version.labeling))
        return anchor, events, expected, leader


@pytest.fixture()
def replayed(trace):
    anchor, events, __, __ = trace
    with consumer(anchor) as replica:
        replica.apply_records(page_of(events))
        yield replica


class TestReplay:
    def test_in_order_replay_is_byte_identical(self, trace, replayed):
        __, __, expected, __ = trace
        assert replayed.doc_ids() == sorted(expected)
        for doc_id, text in expected.items():
            assert replayed.text(doc_id) == text
        # the close evicted the document and everything maintained
        # for it
        assert "gone" not in replayed
        assert replayed._entries.get("gone") is None

    def test_exact_duplicate_replay_is_absorbed(self, trace, replayed):
        __, events, expected, __ = trace
        applied = replayed.applied_seq
        # a full second delivery is skipped by sequence
        assert replayed.apply_records(page_of(events)) == applied
        for doc_id, text in expected.items():
            assert replayed.text(doc_id) == text
        assert "gone" not in replayed.doc_ids()

    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_any_at_least_once_redelivery_converges(self, trace, data):
        """Any schedule of rewinds converges to the same bytes."""
        anchor, events, expected, __ = trace
        with consumer(anchor) as replica:
            deliver_with_rewinds(replica, events, data)
            for doc_id, text in expected.items():
                assert replica.text(doc_id) == text
            assert "gone" not in replica.doc_ids()


class TestGuards:
    def test_batch_without_base_state_is_typed(self, trace):
        anchor, events, __, __ = trace
        batch = next(e for e in events
                     if e["record"]["kind"] == "batch")
        stream = decode_token(anchor)[0]
        with consumer(encode_token(stream, batch["seq"])) as replica:
            with pytest.raises(RecoveryError) as info:
                replica.apply_records(page_of([batch]))
            assert "never opened" in str(info.value)

    def test_payloads_behind_their_anchor_are_a_version_gap(self, trace):
        """The fatal pairing an export never produces: installed state
        older than the position it is streamed from."""
        anchor, events, __, __ = trace
        batches = [e for e in events
                   if e["record"]["kind"] == "batch"
                   and e["record"]["doc_id"] == "a"]
        opened = next(e for e in events
                      if e["record"]["kind"] == "open"
                      and e["record"]["doc"]["doc_id"] == "a")
        stream = decode_token(anchor)[0]
        with consumer(encode_token(stream, batches[-1]["seq"]),
                      payloads=[opened["record"]["doc"]]) as replica:
            with pytest.raises(RecoveryError) as info:
                replica.apply_records(page_of(batches[-1:]))
            assert "gap" in str(info.value)

    def test_a_page_of_another_epoch_is_refused(self, trace):
        anchor, events, __, __ = trace
        with consumer(encode_token("other", 0)) as replica:
            with pytest.raises(ClusterError) as info:
                replica.apply_records(page_of(events[:1]))
            assert "bootstrap" in str(info.value)
            assert replica.doc_ids() == []

    def test_a_streamed_cursor_record_changes_nothing(self, trace):
        anchor, __, __, __ = trace
        stream, seq = decode_token(anchor)
        with consumer(anchor) as replica:
            replica.apply_records({
                "events": [{"seq": seq, "record": {"kind": "repl-pos",
                                                   "seq": 9}}],
                "token": encode_token(stream, seq + 1)})
            assert replica.applied_seq == seq + 1
            assert replica.doc_ids() == []

    def test_unknown_kind_is_refused(self, trace):
        anchor, __, __, __ = trace
        stream, seq = decode_token(anchor)
        with consumer(anchor) as replica:
            with pytest.raises(RecoveryError):
                replica.apply_records({
                    "events": [{"seq": seq,
                                "record": {"kind": "mystery"}}],
                    "token": encode_token(stream, seq + 1)})

    def test_reading_an_absent_document_is_typed(self, trace):
        with consumer(trace[0]) as replica:
            for read in (replica.text, replica.version):
                with pytest.raises(ReproError):
                    read("nope")


class TestBootstrap:
    def test_bootstrap_pairs_with_export_state_form(self, tmp_path):
        with DocumentStore(durability="log",
                           wal_dir=str(tmp_path / "wal")) as store:
            source = store.enable_replication()
            store.open("a", DOC)
            store.submit_xquery(
                "a", 'insert node <x/> as last into /doc/items')
            store.flush("a")
            page = store.export_state(form="state")
            token = encode_token(page["stream"], page["seq"])
            with consumer(token, payloads=page["docs"]) as replica:
                assert replica.text("a") == store.text("a")
                assert replica.version("a") == 1
                # resuming from the paired position redelivers at most
                # what the payloads already contain — here nothing
                replay = source.read(from_token=token, decode=False,
                                     max_events=500)
                assert replay["events"] == []
                assert replica.apply_records(replay) == page["seq"]


def _codes(replica, doc_id):
    return _label_codes(replica.document(doc_id),
                        replica.labeling(doc_id))


class TestIndexParity:
    """The consumer maintains the leader's labeling and secondary
    index from the stream alone."""

    def test_in_order_replay_reproduces_the_leader_index(self, trace,
                                                         replayed):
        __, __, expected, leader = trace
        for doc_id, text in expected.items():
            assert replayed.text(doc_id) == text
            leader_index, leader_codes = leader[doc_id]
            maintained = _published(replayed, doc_id).index
            # streamed maintenance == the leader's maintained index
            # == a from-scratch rebuild over the consumer's own tree
            assert maintained == leader_index
            assert maintained == build_index(replayed.document(doc_id),
                                             replayed.labeling(doc_id))
            # and the label timeline is digit-identical, not just
            # order-isomorphic — the leader's exact codes, replayed
            assert _codes(replayed, doc_id) == leader_codes

    @settings(deadline=None, max_examples=15)
    @given(data=st.data())
    def test_redelivery_converges_to_the_same_index(self, trace, data):
        anchor, events, expected, leader = trace
        with consumer(anchor) as replica:
            deliver_with_rewinds(replica, events, data)
            for doc_id in expected:
                assert _published(replica, doc_id).index \
                    == leader[doc_id][0]

    def test_queries_serve_from_the_maintained_index(self, replayed):
        for query in ("//x", "/doc/items/*", "//@a", "//info"):
            walked = replayed.query("a", query, engine="walk")
            served = replayed.query("a", query, engine="index")
            assert walked["nodes"] == served["nodes"]
        assert replayed.query("a", "//x")["version"] == \
            replayed.version("a")


class TestIndexParityAcrossRelabels:
    """A tight-headroom leader fully relabels mid-stream (the headroom
    rule — nothing in the stream says so) and rejects a batch it had
    already shipped; a consumer configured with the producer's budget
    stays digit- and index-identical across both."""

    HEADROOM = 8

    @pytest.fixture(scope="class")
    def tight_trace(self, tmp_path_factory):
        wal = tmp_path_factory.mktemp("consumer-tight") / "wal"
        with DocumentStore(durability="log", wal_dir=str(wal),
                           max_code_length=self.HEADROOM) as store:
            source = store.enable_replication()
            anchor = source.tail_token()
            store.open("a", DOC)
            for __ in range(6):
                store.submit_xquery(
                    "a",
                    'insert node <x k0="v"/> as first into /doc/items')
                store.flush("a")
            # a failing batch (duplicate attribute): shipped
            # write-ahead, then a no-op on leader and consumer alike
            from repro.pul.ops import InsertAttributes
            from repro.pul.pul import PUL

            items = next(n.node_id for n in
                         _published(store, "a").document.nodes()
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
            page = source.read(from_token=anchor, decode=False,
                               max_events=500)
            version = _published(store, "a")
            return (anchor, page, store.text("a"), version.index,
                    _label_codes(version.document, version.labeling))

    def test_stream_carries_no_relabel_records(self, tight_trace):
        """A failed batch does not rebuild labels, so there is nothing
        to ship besides its own write-ahead record."""
        __, page, __, __, __ = tight_trace
        kinds = {e["record"]["kind"] for e in page["events"]}
        assert kinds == {"open", "batch"}

    def test_parity_across_full_relabel_boundaries(self, tight_trace):
        anchor, page, text, leader_index, leader_codes = tight_trace
        with consumer(anchor,
                      max_code_length=self.HEADROOM) as replica:
            replica.apply_records(page)
            assert replica.text("a") == text
            assert _published(replica, "a").index == leader_index
            assert _codes(replica, "a") == leader_codes
