"""The durable store: snapshot fidelity, recovery identity, compaction.

The central property is *state identity*: a recovered store must equal
the pre-crash store not just in document bytes but in node identifiers,
allocator position, version counters, and — because the replayed tail
runs through the incremental-relabel machinery — in every containment
label digit. The helpers below capture and compare that full state.
"""

import copy
import json
import os
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DurabilityError,
    NotApplicableError,
    RecoveryError,
    ReproError,
    XMLSyntaxError,
)
from repro.pul.ops import (
    Delete,
    InsertAfter,
    InsertAttributes,
    InsertBefore,
    InsertIntoAsFirst,
    InsertIntoAsLast,
    Rename,
    ReplaceValue,
)
from repro.pul.pul import PUL
from repro.pul.serialize import tree_to_xml
from repro.store import (
    DocumentStore,
    DurabilityPolicy,
    replay_oracle,
)
from repro.store.durability import (
    DurabilityManager,
    document_payload,
    load_durable_state,
    restore_document,
)
from repro.store.store import DEFAULT_MAX_CODE_LENGTH
from repro.workloads import generate_client_batches, generate_xmark
from repro.xdm.document import Document
from repro.xdm.node import Node
from repro.xdm.parser import MAX_ELEMENT_NESTING
from repro.xdm.serializer import serialize

DOC = ("<bib><paper year=\"2011\"><title>T1</title></paper>"
       "<paper year=\"2024\"><title>T2</title></paper></bib>")


@pytest.fixture(scope="module")
def workload():
    document = generate_xmark(scale=0.02, seed=7)
    batches, expected = generate_client_batches(
        document, clients=3, rounds=5, ops_per_round=10, seed=3)
    return serialize(document), batches, serialize(expected)


def _full_state(store, doc_id):
    """Everything recovery must reproduce, as a comparable value."""
    version = store._require(doc_id).published
    return {
        "text": store.text(doc_id),
        "ids": sorted(version.document.node_ids()),
        "next_id": version.document.allocator.next_value,
        "version": version.version,
        "batches": version.batches,
        "incremental_relabels": version.incremental_relabels,
        "full_relabels": version.full_relabels,
        "labels": {node_id: label.to_string()
                   for node_id, label
                   in version.labeling.as_mapping().items()},
        "max_code_length": version.labeling.max_code_length,
    }


def _run_session(store, batches, doc_id="d"):
    for submissions in batches:
        for client, pul in submissions:
            store.submit(doc_id, pul.copy(), client=client)
        store.flush(doc_id)


def _durable_store(tmp_path, spec, store_class=DocumentStore, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("backend", "serial")
    return store_class(durability=spec, wal_dir=str(tmp_path / "wal"),
                       **kwargs)


class TestPolicy:
    def test_parse_specs(self):
        assert DurabilityPolicy.parse("off").mode == "off"
        assert DurabilityPolicy.parse("log").mode == "log"
        policy = DurabilityPolicy.parse("log+snapshot:3")
        assert policy.mode == "snapshot" and policy.snapshot_every == 3
        assert DurabilityPolicy.parse("snapshot").mode == "snapshot"
        with pytest.raises(DurabilityError):
            DurabilityPolicy.parse("sometimes")
        with pytest.raises(DurabilityError):
            DurabilityPolicy("snapshot", snapshot_every=0)

    def test_durable_policy_requires_wal_dir(self):
        with pytest.raises(ReproError):
            DocumentStore(durability="log")

    def test_wal_dir_implies_log_policy(self, tmp_path):
        with DocumentStore(backend="serial",
                           wal_dir=str(tmp_path / "w")) as store:
            assert store.durability_policy.mode == "log"


# -- payload fidelity ------------------------------------------------------

#: text values that stress a text form: empty, whitespace-only, markup
_VALUES = ("", " ", "\n\t ", "x", "y z", "<&>\"'")


@st.composite
def _trees(draw, depth=0):
    """A detached element with attributes, whose children include
    adjacent, empty and whitespace-only text nodes."""
    element = Node.element(draw(st.sampled_from(("a", "b", "c"))))
    for name in draw(st.lists(st.sampled_from(("p", "q", "r")),
                              unique=True, max_size=2)):
        element.append_attribute(
            Node.attribute(name, draw(st.sampled_from(_VALUES))))
    for __ in range(draw(st.integers(0, 3 if depth < 3 else 0))):
        if draw(st.booleans()):
            element.append_child(Node.text(draw(st.sampled_from(_VALUES))))
        else:
            element.append_child(draw(_trees(depth + 1)))
    return element


@st.composite
def _operations(draw, document):
    """One valid-looking operation on a node of ``document`` (a batch
    of them may still conflict or fail; the store then refuses it)."""
    node = draw(st.sampled_from(list(document.nodes())))
    content = draw(st.lists(
        st.one_of(st.sampled_from(_VALUES).map(Node.text),
                  _trees(depth=2)), min_size=1, max_size=3))
    if node.is_attribute or node.is_text:
        if node.parent is not None and draw(st.booleans()):
            return Delete(node.node_id)
        if node.is_text and draw(st.booleans()):
            return InsertAfter(node.node_id, content)
        return ReplaceValue(node.node_id, draw(st.sampled_from(_VALUES)))
    kind = draw(st.sampled_from(
        ("delete", "before", "into", "first", "attributes", "rename")))
    if node.parent is not None and kind == "delete":
        return Delete(node.node_id)
    if node.parent is not None and kind == "before":
        return InsertBefore(node.node_id, content)
    if kind == "first":
        return InsertIntoAsFirst(node.node_id, content)
    if kind == "attributes":
        taken = {attr.name for attr in node.attributes}
        name = draw(st.sampled_from(("s", "t", "u")))
        if name not in taken:
            return InsertAttributes(node.node_id, [
                Node.attribute(name, draw(st.sampled_from(_VALUES)))])
    if kind == "rename":
        return Rename(node.node_id, draw(st.sampled_from(("d", "e"))))
    return InsertIntoAsLast(node.node_id, content)


def _assert_restores_exactly(version):
    """``restore_document(document_payload(version))`` is ``version``:
    text, node ids, allocator, watermark, budget, counters and every
    label field — as an unpublished version with no index."""
    restored = restore_document(document_payload(version))
    document, labeling = version.document, version.labeling
    assert restored.doc_id == version.doc_id
    assert restored.index is None
    assert serialize(restored.document) == serialize(document)
    # the exchange form keeps every id and every text node, empty ones
    # and adjacent ones included
    assert tree_to_xml(restored.document.root) == tree_to_xml(document.root)
    assert sorted(restored.document.node_ids()) \
        == sorted(document.node_ids())
    for node in restored.document.nodes():
        assert restored.document.get(node.node_id) is node
    assert restored.document.allocator.next_value \
        == document.allocator.next_value
    assert restored.labeling.max_code_length == labeling.max_code_length
    assert restored.budget == version.budget
    assert {node_id: label.to_string()
            for node_id, label in restored.labeling.as_mapping().items()} \
        == {node_id: label.to_string()
            for node_id, label in labeling.as_mapping().items()}
    for counter in ("version", "batches", "incremental_relabels",
                    "full_relabels"):
        assert getattr(restored, counter) == getattr(version, counter)


class TestSnapshotFidelity:
    """A payload restores exactly what it was taken from — which also
    pins that a label's type, level, parent and sibling ids are what
    the tree says they are, since the payload carries only the codes."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.data())
    def test_document_payload_round_trip(self, data):
        root = data.draw(_trees(), label="document")
        # the same batches under two code-length budgets: the default
        # relabels incrementally, a budget of one digit relabels every
        # batch that inserts anything in full
        stores = [DocumentStore(workers=1, backend="serial",
                                max_code_length=budget)
                  for budget in (DEFAULT_MAX_CODE_LENGTH, 1)]
        try:
            for store in stores:
                store.open("d", Document(root=root.deep_copy()))
                _assert_restores_exactly(store._require("d").published)
            for __ in range(data.draw(st.integers(1, 4), label="flushes")):
                operations = data.draw(st.lists(
                    _operations(stores[0].document("d")),
                    min_size=1, max_size=3), label="batch")
                for store in stores:
                    store.submit("d", PUL([op.copy() for op in operations]))
                    try:
                        store.flush("d")
                    except ReproError:
                        store.discard_pending("d")
                    _assert_restores_exactly(store._require("d").published)
            assert stores[0].text("d") == stores[1].text("d")
        finally:
            for store in stores:
                store.close()

    def test_relabels_of_both_kinds_round_trip(self, workload):
        """The fixed workload relabels incrementally under the default
        budget and in full under a tight one; both restore exactly."""
        text, batches, __ = workload
        for budget, counter in ((DEFAULT_MAX_CODE_LENGTH,
                                 "incremental_relabels"),
                                (4, "full_relabels")):
            with DocumentStore(workers=1, backend="serial",
                               max_code_length=budget) as store:
                store.open("d", text)
                _run_session(store, batches)
                version = store._require("d").published
                assert getattr(version, counter) > 0
                _assert_restores_exactly(version)


def _version_of(text):
    with DocumentStore(workers=1, backend="serial") as store:
        return store.open("d", text).published


def _hostile_payloads():
    """``(case, payload)`` pairs no restore may accept."""
    version = _version_of(
        '<r k="v"><a>one</a><b x="1" y="2"><c/>two</b></r>')
    document, labeling = version.document, version.labeling
    good = document_payload(version)
    rows = json.loads(good["nodes"])

    def with_rows(edit):
        edited = copy.deepcopy(rows)
        edit(edited)
        return dict(good, nodes=json.dumps(edited))

    def set_field(index, field, value):
        def edit(edited):
            edited[index][field] = value
        return edit

    def swap_codes(edited):
        edited[0][4], edited[0][5] = edited[0][5], edited[0][4]

    retired = {key: good[key] for key in good if key != "nodes"}
    retired["tree"] = tree_to_xml(document.root)
    retired["labels"] = [label.to_string()
                         for label in labeling.as_mapping().values()]
    return [
        ("cut-short", with_rows(lambda edited: edited.pop())),
        ("child-count-past-the-end", with_rows(set_field(0, 3, 9))),
        ("left-over-row", with_rows(
            lambda edited: edited.append([99, "z", "0", "1"]))),
        ("left-over-root", with_rows(
            lambda edited: edited.append([99, "r", 0, 0, "0", "1"]))),
        ("short-row", with_rows(lambda edited: edited[2].pop())),
        ("long-row", with_rows(lambda edited: edited[2].append("x"))),
        ("empty-row", with_rows(lambda edited: edited.insert(2, []))),
        ("row-not-a-list", with_rows(
            lambda edited: edited.__setitem__(2, "row"))),
        ("attribute-row-as-child", with_rows(set_field(0, 2, 0))),
        ("child-row-as-attribute", with_rows(set_field(0, 2, 2))),
        ("name-not-a-string", with_rows(set_field(0, 1, 7))),
        ("code-not-a-string", with_rows(set_field(3, 2, 1))),
        ("count-not-an-integer", with_rows(set_field(0, 3, "2"))),
        ("negative-count", with_rows(set_field(0, 3, -1))),
        ("duplicate-id", with_rows(set_field(2, 0, rows[0][0]))),
        ("string-id", with_rows(set_field(2, 0, "3"))),
        ("float-id", with_rows(set_field(2, 0, 3.5))),
        ("boolean-id", with_rows(set_field(2, 0, True))),
        ("start-after-end", with_rows(swap_codes)),
        ("start-equals-end", with_rows(set_field(2, -2, rows[2][-1]))),
        ("first-row-not-an-element", with_rows(
            lambda edited: edited.insert(0, [99, "t", "0", "1"]))),
        ("no-rows", dict(good, nodes="[]")),
        ("rows-not-json", dict(good, nodes="[[1,")),
        ("rows-as-a-list", dict(good, nodes=rows)),
        ("rows-nested-past-the-stack", dict(
            good, nodes="[" * 100000 + "]" * 100000)),
        ("next-id-not-an-integer", dict(good, next_id="9")),
        ("budget-not-an-integer", dict(good, budget="6")),
        ("budget-below-one", dict(good, budget=0)),
        ("budget-a-boolean", dict(good, budget=True)),
        ("counter-missing", {key: good[key] for key in good
                             if key != "version"}),
        ("doc-id-missing", {key: good[key] for key in good
                            if key != "doc_id"}),
        ("doc-id-unhashable", dict(good, doc_id=["d"])),
        ("not-an-object", ["d"]),
        ("retired-tree-and-labels-form", retired),
    ]


_HOSTILE = _hostile_payloads()


class TestHostilePayloads:
    """Every malformed payload is the typed :class:`RecoveryError` —
    from a restore, from a restart of a directory that holds it (as an
    ``open`` record or in a snapshot) and from a replica's bootstrap;
    never a bare ``StopIteration``, ``IndexError`` or
    ``RecursionError``."""

    @pytest.mark.parametrize("case,payload", _HOSTILE,
                             ids=[case for case, __ in _HOSTILE])
    def test_restore_refuses(self, case, payload):
        with pytest.raises(RecoveryError):
            restore_document(payload)

    @pytest.mark.parametrize("holder", ["open-record", "snapshot"])
    @pytest.mark.parametrize("case,payload", _HOSTILE,
                             ids=[case for case, __ in _HOSTILE])
    def test_restart_refuses(self, tmp_path, case, payload, holder):
        wal_dir = str(tmp_path / "wal")
        manager = DurabilityManager(wal_dir, DurabilityPolicy("log"))
        manager.start()
        if holder == "open-record":
            manager.log_open(payload)
        else:
            manager.commit_snapshot(manager.begin_rotation(), [payload])
        manager.close()
        with pytest.raises(RecoveryError):
            _durable_store(tmp_path, "log")
        with pytest.raises(RecoveryError):
            replay_oracle(wal_dir)

    @pytest.mark.parametrize("case,payload", _HOSTILE,
                             ids=[case for case, __ in _HOSTILE])
    def test_bootstrap_refuses(self, case, payload):
        from repro.cluster import ReplicaStore

        with ReplicaStore(workers=1, backend="serial") as replica:
            replica.bootstrap([document_payload(_version_of(DOC))], 0,
                              stream="s")
            with pytest.raises(RecoveryError):
                replica.bootstrap([payload], 1, stream="s")
            # the refused page replaced nothing
            assert replica.doc_ids() == ["d"]
            assert replica.applied_seq == 0


class TestNestingBound:
    """A document ``open`` or a flush acknowledges must restart: nesting
    past :data:`~repro.xdm.parser.MAX_ELEMENT_NESTING` is refused — by
    the scanner at ``open``, by the flush for a batch's insertions —
    before anything is logged, and a document at the bound survives a
    snapshot and a restart byte for byte."""

    @staticmethod
    def nested(levels):
        return "<a>" * levels + "</a>" * levels

    @staticmethod
    def chain(levels):
        """A detached chain of ``levels`` nested ``<b>`` elements, each
        with a text child too (text adds no element level)."""
        top = node = Node.element("b")
        for __ in range(levels - 1):
            node.append_child(Node.text("t"))
            node = node.append_child(Node.element("b"))
        node.append_child(Node.text("t"))
        return top

    def test_a_batch_past_the_bound_is_refused_before_the_log(
            self, tmp_path):
        depth = 500
        with _durable_store(tmp_path, "log") as store:
            store.open("deep", self.nested(depth))
            store.open("other", DOC)
            leaf = max(store.document("deep").node_ids())
            for levels in (400, MAX_ELEMENT_NESTING - depth + 1):
                store.submit("deep", PUL([InsertIntoAsLast(
                    leaf, [self.chain(levels)])]))
                with pytest.raises(NotApplicableError,
                                   match="{} deep".format(depth + levels)):
                    store.flush("deep")
                # refused like any failed flush: the queue is kept
                assert store.stats("deep")["pending"] == 1
                assert store.version("deep") == 0
                store.discard_pending("deep")
            # exactly at the bound
            store.submit("deep", PUL([InsertIntoAsLast(
                leaf, [self.chain(MAX_ELEMENT_NESTING - depth)])]))
            store.flush("deep")
            at_bound = store.text("deep")
            assert at_bound.count("<b>") == MAX_ELEMENT_NESTING - depth
        state = load_durable_state(str(tmp_path / "wal"), repair=False)
        assert [record["kind"] for record in state.records] \
            == ["open", "open", "batch"]
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.text("deep") == at_bound
            assert recovered.text("other") == DOC
        assert replay_oracle(str(tmp_path / "wal"))["deep"] == (at_bound, 1)

    def test_past_the_bound_is_refused_and_not_logged(self, tmp_path):
        with _durable_store(tmp_path, "log") as store:
            store.open("other", DOC)
            with pytest.raises(XMLSyntaxError) as refused:
                store.open("deep", self.nested(MAX_ELEMENT_NESTING + 1))
            # at the start tag that opens one level too many
            assert refused.value.position == 3 * MAX_ELEMENT_NESTING
            assert store.doc_ids() == ["other"]
        state = load_durable_state(str(tmp_path / "wal"), repair=False)
        assert [record["doc"]["doc_id"] for record in state.records] \
            == ["other"]
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.doc_ids() == ["other"]
            assert recovered.text("other") == DOC

    def test_the_bound_itself_opens_snapshots_and_restarts(self, tmp_path):
        text = self.nested(MAX_ELEMENT_NESTING)
        with _durable_store(tmp_path, "log") as store:
            store.open("deep", text)
            store.open("other", DOC)
            assert store.text("deep") == "<a>" * (
                MAX_ELEMENT_NESTING - 1) + "<a/>" + "</a>" * (
                MAX_ELEMENT_NESTING - 1)
            before = store.text("deep")
            assert store.snapshot() is not None
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.recovery.snapshot_generation is not None
            assert recovered.text("deep") == before
            assert recovered.text("other") == DOC
        assert replay_oracle(str(tmp_path / "wal"))["deep"] == (before, 0)


class TestRecovery:
    @pytest.mark.parametrize("spec", ["log", "log+snapshot:2"])
    def test_recovered_state_is_identical(self, tmp_path, workload, spec):
        text, batches, expected = workload
        with _durable_store(tmp_path, spec) as store:
            store.open("d", text)
            _run_session(store, batches)
            before = _full_state(store, "d")
        assert before["text"] == expected
        with _durable_store(tmp_path, spec) as recovered:
            assert recovered.recovery is not None
            assert _full_state(recovered, "d") == before
            oracle = replay_oracle(str(tmp_path / "wal"))
            assert oracle["d"] == (before["text"], before["version"])

    def test_recovered_store_keeps_serving(self, tmp_path, workload):
        """Recovery is a working store, not a read-only reconstruction:
        post-recovery flushes log and recover again."""
        text, batches, __ = workload
        with _durable_store(tmp_path, "log") as store:
            store.open("d", text)
            _run_session(store, batches[:3])
        with _durable_store(tmp_path, "log") as resumed:
            _run_session(resumed, batches[3:])
            after = _full_state(resumed, "d")
        with _durable_store(tmp_path, "log") as again:
            assert _full_state(again, "d") == after

    def test_torn_final_record_recovers_prefix(self, tmp_path, workload):
        text, batches, __ = workload
        states = {}
        with _durable_store(tmp_path, "log") as store:
            store.open("d", text)
            for submissions in batches:
                for client, pul in submissions:
                    store.submit("d", pul.copy(), client=client)
                store.flush("d")
                states[store.version("d")] = _full_state(store, "d")
        wal_path = str(tmp_path / "wal" / "wal-00000000.log")
        with open(wal_path, "r+b") as handle:
            handle.truncate(os.path.getsize(wal_path) - 11)
        with _durable_store(tmp_path, "log") as recovered:
            assert not recovered.recovery.clean
            version = recovered.version("d")
            assert version == len(batches) - 1
            assert _full_state(recovered, "d") == states[version]

    def test_close_document_is_durable(self, tmp_path):
        with _durable_store(tmp_path, "log") as store:
            store.open("a", DOC)
            store.open("b", DOC)
            store.close_document("a")
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.doc_ids() == ["b"]

    def test_ids_of_mixed_types_list_flush_and_restart(self, tmp_path):
        """The in-process store keeps any hashable id: an int beside a
        string lists, flushes and recovers in ``str(doc_id)`` order."""
        from repro.xquery import compile_pul

        with _durable_store(tmp_path, "log") as store:
            for doc_id in ("a", 5):
                store.open(doc_id, DOC)
                store.submit(doc_id, compile_pul(
                    "delete node /bib/paper[1]", store.document(doc_id)))
            assert store.doc_ids() == [5, "a"]
            assert [result.doc_id for result in store.flush_all()] \
                == [5, "a"]
            text = store.text(5)
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.doc_ids() == [5, "a"]
            assert recovered.recovery.documents == [(5, 1), ("a", 1)]
            assert recovered.text(5) == recovered.text("a") == text
        assert replay_oracle(str(tmp_path / "wal")) == {
            5: (text, 1), "a": (text, 1)}

    def test_conflict_rejected_flush_touches_nothing(self, tmp_path):
        """A flush rejected while coalescing fails *before* the
        logged-version fence: nothing was logged or applied, so nothing
        is relabeled, republished or shipped — and the next good batch
        lands on the untouched label timeline everywhere."""
        from repro.cluster import ReplicaStore
        from repro.cluster.tokens import decode_token
        from repro.pul.ops import Rename
        from repro.pul.pul import PUL
        from repro.xdm.parser import parse_document

        document = parse_document(DOC)
        title = next(document.elements_by_name("title"))
        wal_dir = str(tmp_path / "wal")

        def logged_kinds():
            state = load_durable_state(wal_dir, repair=False)
            return [record["kind"] for record in state.records]

        with _durable_store(tmp_path, "log") as store:
            source = store.enable_replication()
            anchor = source.tail_token()
            store.open("d", DOC)
            token = source.tail_token()
            published = store._require("d").published
            # two clients renaming the same node differently: the union
            # is incompatible, the flush is rejected
            store.submit("d", PUL([Rename(title.node_id, "x")]),
                         client="alice")
            store.submit("d", PUL([Rename(title.node_id, "y")]),
                         client="bob")
            with pytest.raises(ReproError):
                store.flush("d")
            assert logged_kinds() == ["open"]
            assert store._require("d").published is published
            assert store.stats("d")["pending"] == 2   # queue restored
            assert source.read(from_token=token, decode=False,
                               max_events=10)["events"] == []
            store.discard_pending("d")
            store.submit("d", PUL([Rename(title.node_id, "headline")]),
                         client="alice")
            store.flush("d")
            assert logged_kinds() == ["open", "batch"]
            before = _full_state(store, "d")
            with ReplicaStore(workers=1, backend="serial") as replica:
                stream, seq = decode_token(anchor)
                replica.bootstrap([], seq, stream=stream)
                replica.apply_records(source.read(
                    from_token=anchor, decode=False, max_events=10))
                assert _full_state(replica, "d") == before
        with _durable_store(tmp_path, "log") as recovered:
            assert _full_state(recovered, "d") == before
        assert replay_oracle(wal_dir)["d"] == (before["text"], 1)

    def test_failed_batch_leaves_no_trace(self, tmp_path):
        """A batch that fails mid-apply (the XQUF duplicate attribute,
        found only after mutation) is logged write-ahead and then
        changes nothing, on any host of the log: nothing is published,
        relabeled, index-rebuilt or logged beyond that one record, and
        the next good batch lands on the untouched label timeline
        everywhere.

        Replaces ``test_crash_before_relabel_record_still_converges``:
        the failed flush used to republish rebuilt labels and log a
        ``relabel`` record, and a crash between the two appends was a
        window replay had to close. Neither the record nor the window
        exists any more."""
        import random

        from repro.cluster import ReplicaStore
        from repro.cluster.tokens import encode_token
        from repro.pul.ops import InsertAttributes, Rename
        from repro.pul.pul import PUL
        from repro.xdm.node import Node
        from repro.xdm.parser import parse_document

        document = parse_document(DOC)
        paper = next(document.elements_by_name("paper"))
        title = next(document.elements_by_name("title"))
        wal_dir = str(tmp_path / "wal")

        def deliver(replica, position):
            """The page of event ``position`` into ``replica``; the
            failing batch's must leave the published version the same
            object."""
            event = events[position]
            entry = replica._entries.get("d")
            before = entry and entry.published
            replica.apply_records({"events": [event],
                                   "token": event["token"]})
            if event["record"] is failing:
                assert replica._entries["d"].published is before

        with _durable_store(tmp_path, "log") as store:
            source = store.enable_replication()
            seq0 = source.next_seq
            entry = store.open("d", DOC)
            published = entry.published
            fsyncs = store.obs.counter("repro_wal_fsyncs_total")
            fsyncs_before = fsyncs.value
            stats_before = store.stats("d")
            store.submit(
                "d", PUL([InsertAttributes(
                    paper.node_id, [Node.attribute("year", "1999")])]),
                client="alice")
            with pytest.raises(ReproError):
                store.flush("d")
            # the leader: the very objects it published before
            assert entry.published is published
            assert entry.published.index is published.index
            assert store.stats("d") == dict(stats_before, pending=1)
            assert entry.logged_version == published.version == 0
            assert fsyncs.value == fsyncs_before + 1   # the batch record
            state = load_durable_state(wal_dir, repair=False)
            assert [r["kind"] for r in state.records] == ["open", "batch"]
            assert store.discard_pending("d") == 1
            store.submit("d", PUL([Rename(title.node_id, "headline")]),
                         client="alice")
            store.flush("d")
            before = _full_state(store, "d")
            index = entry.published.index

            def equals_leader(host):
                return (_full_state(host, "d") == before and
                        host._entries["d"].published.index == index)

            events = source.read(
                from_token=encode_token(source.stream_id, seq0),
                decode=False, max_events=10)["events"]
            records = [event["record"] for event in events]
            assert [r["kind"] for r in records] \
                == ["open", "batch", "batch"]
            failing = records[1]

            # a replica streaming record by record, in order and
            # under at-least-once rewinds
            for rewind in (0.0, 0.5):
                rng = random.Random(7)
                with ReplicaStore(workers=1, backend="serial") as replica:
                    replica.bootstrap([], seq0, stream=source.stream_id)
                    position = 0
                    while position < len(events):
                        deliver(replica, position)
                        position += 1
                        if rng.random() < rewind:
                            position = rng.randrange(position + 1)
                    assert equals_leader(replica)

        # crash recovery, record by record
        class CheckedRecovery(DocumentStore):
            def _apply_record(self, record):
                entry = self._entries.get("d")
                before = entry and entry.published
                outcome = super()._apply_record(record)
                if record.get("version") == 1 and outcome == "skipped":
                    assert self._entries["d"].published is before
                    self.saw_failure = True
                return outcome

        with _durable_store(tmp_path, "log",
                            store_class=CheckedRecovery) as recovered:
            assert recovered.saw_failure
            assert equals_leader(recovered)
        assert replay_oracle(wal_dir)["d"] == (before["text"], 1)

    def test_a_relabel_record_is_refused_by_every_reader(self, tmp_path):
        """Stores before PR 15 logged a ``relabel`` record after a
        failed batch. Nothing writes one now, and no reader knows the
        kind: recovery, ``replay_oracle`` and a replica's
        ``apply_records`` each refuse it with the typed
        :class:`RecoveryError` every unknown kind gets — none skips it
        and serves a state the log does not describe."""
        from repro.cluster import ReplicaStore
        from repro.cluster.tokens import encode_token
        from repro.errors import RecoveryError
        from repro.pul.ops import Rename
        from repro.pul.pul import PUL
        from repro.store.durability.recovery import encode_payload
        from repro.store.durability.wal import WalWriter
        from repro.xdm.parser import parse_document

        title = next(parse_document(DOC).elements_by_name("title"))
        with _durable_store(tmp_path, "log") as store:
            store.open("d", DOC)
            store.submit("d", PUL([Rename(title.node_id, "headline")]))
            store.flush("d")
        opened, batch = load_durable_state(
            str(tmp_path / "wal"), repair=False).records
        records = [opened, {"kind": "relabel", "doc_id": "d"}, batch]
        old = tmp_path / "old"
        os.makedirs(str(old / "wal"))
        writer = WalWriter(str(old / "wal" / "wal-00000000.log"))
        for record in records:
            writer.append(encode_payload(record))
        writer.close()
        with pytest.raises(RecoveryError, match="relabel"):
            _durable_store(old, "log")
        with pytest.raises(RecoveryError, match="relabel"):
            replay_oracle(str(old / "wal"))
        with ReplicaStore(workers=1, backend="serial") as replica:
            replica.bootstrap([], 0, stream="s")
            with pytest.raises(RecoveryError, match="relabel"):
                replica.apply_records({
                    "events": [{"seq": seq, "record": record}
                               for seq, record in enumerate(records)],
                    "token": encode_token("s", len(records))})
            # the records before it were applied; the cursor stops
            # short of the refused one
            assert replica.applied_seq == 1
            assert replica.version("d") == 0

    def test_environmental_apply_failure_skips_on_replay(
            self, tmp_path, workload, monkeypatch):
        """A batch logged write-ahead whose application then failed is
        skipped identically at replay; recovered bytes match the oracle
        even though the original failure was environmental."""
        import repro.store.store as store_module

        text, batches, __ = workload
        real_apply = store_module.apply_batch_in_place
        with _durable_store(tmp_path, "log") as store:
            store.open("d", text)
            _run_session(store, batches[:2])
            for client, pul in batches[2]:
                store.submit("d", pul.copy(), client=client)

            def exploding_apply(*args, **kwargs):
                raise ReproError("simulated mid-apply crash")

            monkeypatch.setattr(store_module, "apply_batch_in_place",
                                exploding_apply)
            with pytest.raises(ReproError):
                store.flush("d")
            monkeypatch.setattr(store_module, "apply_batch_in_place",
                                real_apply)
            store.flush("d")  # same pending, now succeeds
            before_text = store.text("d")
            before_version = store.version("d")
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.text("d") == before_text
            assert recovered.version("d") == before_version
            oracle = replay_oracle(str(tmp_path / "wal"))
            assert oracle["d"][0] == before_text


class TestWriterFailure:
    """A failed append must never bury later records behind torn bytes:
    recovery's prefix scan stops at the first invalid frame, so a torn
    record mid-segment silently truncates every acknowledged batch
    after it."""

    def test_transient_fsync_failure_rolls_back_torn_bytes(
            self, tmp_path, monkeypatch):
        import repro.store.durability.wal as wal_module

        path = str(tmp_path / "seg.log")
        writer = wal_module.WalWriter(path)
        writer.append(b"one")
        good_size = os.path.getsize(path)
        real_fsync = os.fsync
        state = {"fail": True}

        def flaky_fsync(fd):
            if state["fail"]:
                state["fail"] = False
                raise OSError(28, "No space left on device")
            return real_fsync(fd)

        monkeypatch.setattr(wal_module.os, "fsync", flaky_fsync)
        with pytest.raises(DurabilityError):
            writer.append(b"two")
        # the failed record's bytes are gone, not buried mid-segment
        assert os.path.getsize(path) == good_size
        writer.append(b"three")
        writer.close()
        payloads, __, clean = wal_module.scan_wal(path)
        assert clean
        assert payloads == [b"one", b"three"]

    def test_unrepairable_failure_poisons_writer(self, tmp_path,
                                                 monkeypatch):
        import repro.store.durability.wal as wal_module

        path = str(tmp_path / "seg.log")
        writer = wal_module.WalWriter(path)
        writer.append(b"one")

        def broken_fsync(fd):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(wal_module.os, "fsync", broken_fsync)
        with pytest.raises(DurabilityError):
            writer.append(b"two")
        # the rollback's own fsync failed too: nothing may be framed
        # after the possibly-torn tail
        with pytest.raises(DurabilityError):
            writer.append(b"three")
        writer.close()


class TestCompaction:
    def test_snapshot_rotates_and_deletes(self, tmp_path, workload):
        text, batches, __ = workload
        wal_dir = tmp_path / "wal"
        with _durable_store(tmp_path, "log+snapshot:2") as store:
            store.open("d", text)
            _run_session(store, batches)
        names = sorted(os.listdir(str(wal_dir)))
        snaps = [n for n in names if n.startswith("snapshot-")]
        wals = [n for n in names if n.startswith("wal-")]
        assert len(snaps) == 1, names
        assert len(wals) == 1, names
        # the surviving segment belongs to the generation after the
        # surviving snapshot
        snap_gen = int(snaps[0].split("-")[1].split(".")[0])
        wal_gen = int(wals[0].split("-")[1].split(".")[0])
        assert wal_gen == snap_gen + 1

    def test_explicit_snapshot_bounds_replay(self, tmp_path, workload):
        text, batches, __ = workload
        with _durable_store(tmp_path, "log") as store:
            store.open("d", text)
            _run_session(store, batches)
            generation = store.snapshot()
            assert generation is not None
            before = _full_state(store, "d")
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.recovery.replayed_batches == 0
            assert recovered.recovery.snapshot_generation == generation
            assert _full_state(recovered, "d") == before

    def test_snapshot_survives_inflight_flush_of_another_document(
            self, tmp_path):
        """Compaction must never block on a flush lock while holding
        the store lock: flush and close take ``flush_lock`` first and
        the store lock second, so that order deadlocks against any
        in-flight flush of another document. Hold one document's flush
        lock the way a flush does and require the snapshot to finish."""
        with _durable_store(tmp_path, "log") as store:
            store.open("a", DOC)
            store.open("b", DOC)
            entry_b = store._entries["b"]
            holding = threading.Event()
            release = threading.Event()

            def inflight_flush():
                # the flush path's lock order: flush_lock, store lock
                with entry_b.flush_lock:
                    holding.set()
                    release.wait(10)
                    with store._lock:
                        pass

            sealed = []
            flusher = threading.Thread(target=inflight_flush, daemon=True)
            snapshotter = threading.Thread(
                target=lambda: sealed.append(store.snapshot()),
                daemon=True)
            flusher.start()
            assert holding.wait(10)
            snapshotter.start()
            # let the snapshot reach the flush-lock wait; opening a
            # document meanwhile must also not block (it takes only the
            # store lock) and forces the compaction's revalidate+retry
            snapshotter.join(0.2)
            store.open("c", DOC)
            release.set()
            snapshotter.join(10)
            flusher.join(10)
            assert not snapshotter.is_alive(), "compaction deadlocked"
            assert not flusher.is_alive(), "flush deadlocked"
            assert sealed == [0]
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.recovery.snapshot_generation == 0
            assert sorted(recovered.doc_ids()) == ["a", "b", "c"]

    def test_snapshot_on_non_durable_store_is_refused(self):
        with DocumentStore(backend="serial") as store:
            assert store.snapshot() is None

    def test_load_state_reports_generations(self, tmp_path, workload):
        text, batches, __ = workload
        with _durable_store(tmp_path, "log+snapshot:3") as store:
            store.open("d", text)
            _run_session(store, batches)
        state = load_durable_state(str(tmp_path / "wal"))
        assert state.snapshot_generation is not None
        assert state.clean
