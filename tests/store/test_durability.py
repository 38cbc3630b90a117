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
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DurabilityError,
    LabelingError,
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
    encode_record,
    load_durable_state,
    restore_document,
)
from repro.store.durability import recovery as recovery_module
from repro.store.durability import scan_records, wal
from repro.labeling import CDQSEncoder, ContainmentLabeling
from repro.store.store import DEFAULT_MAX_CODE_LENGTH
from repro.store.versions import DocumentVersion
from repro.workloads import generate_client_batches, generate_xmark
from repro.xdm import idtable
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
        "labels": {node_id: version.labeling.exchange_label(node_id)
                   .to_string()
                   for node_id in version.labeling.as_mapping()},
        "max_code_length": version.labeling.max_code_length,
    }


def _run_session(store, batches, doc_id="d"):
    for submissions in batches:
        for client, pul in submissions:
            store.submit(doc_id, pul.copy(), client=client)
        store.flush(doc_id)


def _durable_store(tmp_path, spec, store_class=DocumentStore, **kwargs):
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
        with DocumentStore(wal_dir=str(tmp_path / "w")) as store:
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
        if node is not document.root and draw(st.booleans()):
            return Delete(node.node_id)
        if node.is_text and draw(st.booleans()):
            return InsertAfter(node.node_id, content)
        return ReplaceValue(node.node_id, draw(st.sampled_from(_VALUES)))
    kind = draw(st.sampled_from(
        ("delete", "before", "into", "first", "attributes", "rename")))
    if node is not document.root and kind == "delete":
        return Delete(node.node_id)
    if node is not document.root and kind == "before":
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
        assert restored.document.parent_id(node.node_id) \
            == document.parent_id(node.node_id)
    assert restored.document.allocator.next_value \
        == document.allocator.next_value
    assert restored.labeling.max_code_length == labeling.max_code_length
    assert restored.budget == version.budget
    assert restored.labeling.document is restored.document
    assert restored.labeling.as_mapping() == labeling.as_mapping()
    assert {node_id: restored.labeling.exchange_label(node_id).to_string()
            for node_id in restored.labeling.as_mapping()} \
        == {node_id: labeling.exchange_label(node_id).to_string()
            for node_id in labeling.as_mapping()}
    for counter in ("version", "batches", "incremental_relabels",
                    "full_relabels"):
        assert getattr(restored, counter) == getattr(version, counter)


class TestSnapshotFidelity:
    """A payload restores exactly what it was taken from — codes, and
    the exchange labels made from them and the restored tree, which the
    payload does not carry beyond the codes."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(st.data())
    def test_document_payload_round_trip(self, data):
        root = data.draw(_trees(), label="document")
        # the same batches under two code-length budgets: the default
        # relabels incrementally, a budget of one digit relabels every
        # batch that inserts anything in full
        stores = [DocumentStore(max_code_length=budget)
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
            with DocumentStore(max_code_length=budget) as store:
                store.open("d", text)
                _run_session(store, batches)
                version = store._require("d").published
                assert getattr(version, counter) > 0
                _assert_restores_exactly(version)


    def test_codes_past_64_digits_round_trip(self):
        """Under a budget past 64 digits, a hot spot grows codes past
        the first width: the labeling's columns are lists, and so are
        the restored one's."""
        with DocumentStore(max_code_length=200) as store:
            store.open("d", DOC)
            hot = store.document("d").root.children[-1].node_id
            for __ in range(70):
                store.submit("d", PUL([InsertBefore(
                    hot, [Node.element("x")])]))
                store.flush("d")
            version = store._require("d").published
        assert version.labeling.max_code_length > 64
        assert type(version.labeling._starts) is list
        _assert_restores_exactly(version)
        restored = restore_document(document_payload(version))
        assert type(restored.labeling._starts) is list

    def test_a_far_id_round_trips(self):
        """A node stamped from a producer's band far above the
        document's ids lives in both tables' overflow dicts, and comes
        back there, as the parent of its subtree."""
        document = Document(root=Node.element("r"))
        band = Node.element("band", node_id=10 ** 9)
        band.append_child(Node.text("t"))
        document.root.append_child(band)
        document.register_tree(band, document.root)
        labeling = ContainmentLabeling().build(document)
        version = DocumentVersion("d", 3, document, labeling,
                                  DEFAULT_MAX_CODE_LENGTH)
        assert 10 ** 9 in document._far and 10 ** 9 in labeling._far
        _assert_restores_exactly(version)
        restored = restore_document(document_payload(version))
        assert 10 ** 9 in restored.document._far
        assert 10 ** 9 in restored.labeling._far
        assert restored.document.parent_id(
            band.children[0].node_id) == 10 ** 9


def _version_of(text):
    with DocumentStore() as store:
        return store.open("d", text).published


#: the document of the hostile and far-id payloads: ids 0-8 are
#: r, @k, a, "one", b, @x, @y, c, "two"
FAR_TEXT = '<r k="v"><a>one</a><b x="1" y="2"><c/>two</b></r>'


def _table_payload():
    """A good payload of :data:`FAR_TEXT` and its decoded table."""
    good = document_payload(_version_of(FAR_TEXT))
    table = json.loads(good["table"])
    assert table["kinds"] == "eaeteaaet"
    return good, table


def _with_table(good, table, edit):
    """``good`` with ``edit`` applied to a copy of its decoded
    ``table``."""
    edited = copy.deepcopy(table)
    edit(edited)
    return dict(good, table=json.dumps(edited))


def _far_table(table, far_id):
    """Edit ``table`` so the ``<a>`` slot — the parent of a text — moves
    to a far row under ``far_id``."""
    kinds = table["kinds"]
    table["far"] = [[far_id, "e", "a", None, table["starts"][2],
                     table["ends"][2]]]
    table["kinds"] = kinds[:2] + "-" + kinds[3:]
    table["names"][2] = None
    table["starts"][2] = table["ends"][2] = 0


def _row_form(version):
    """``version``'s payload in the retired node-row form: one row per
    node in document order, with its digit codes."""
    document, labeling = version.document, version.labeling
    rows = []
    for node in document.nodes():
        start, end = labeling.digits(node.node_id)
        if node.is_element:
            rows.append([node.node_id, node.name, len(node.attributes),
                         len(node.children), start, end])
        elif node.is_attribute:
            rows.append([node.node_id, node.name, node.value, start, end])
        else:
            rows.append([node.node_id, node.value, start, end])
    payload = {key: value for key, value in document_payload(version).items()
               if key != "table"}
    payload["nodes"] = json.dumps(rows)
    return payload


def _hostile_payloads():
    """``(case, payload)`` pairs no restore may accept."""
    version = _version_of(FAR_TEXT)
    document, labeling = version.document, version.labeling
    good, table = _table_payload()
    starts, ends = table["starts"], table["ends"]

    def with_table(edit):
        return _with_table(good, table, edit)

    def set_slot(column, slot, value):
        def edit(edited):
            edited[column][slot] = value
        return edit

    def set_kind(slot, kind):
        def edit(edited):
            kinds = edited["kinds"]
            edited["kinds"] = kinds[:slot] + kind + kinds[slot + 1:]
        return edit

    def set_codes(slot, start, end):
        def edit(edited):
            edited["starts"][slot], edited["ends"][slot] = start, end
        return edit

    def add_slot(kind, name, value, start, end):
        def edit(edited):
            edited["kinds"] += kind
            edited["names"].append(name)
            edited["values"].append(value)
            edited["starts"].append(start)
            edited["ends"].append(end)
        return edit

    def then(*edits):
        def edit(edited):
            for each in edits:
                each(edited)
        return edit

    def with_far(edit):
        return with_table(then(lambda edited: _far_table(edited, 2 ** 62),
                               edit))

    def set_far(field, value):
        def edit(edited):
            edited["far"][0][field] = value
        return edit

    retired = {key: good[key] for key in good if key != "table"}
    retired["tree"] = tree_to_xml(document.root)
    retired["labels"] = [labeling.exchange_label(node_id).to_string()
                         for node_id in labeling.as_mapping()]
    blank = add_slot("-", None, None, 0, 0)
    return [
        # the table's shape
        ("column-cut-short", with_table(lambda edited: edited["ends"].pop())),
        ("column-too-long", with_table(
            lambda edited: edited["names"].append(None))),
        ("kinds-cut-short", with_table(
            lambda edited: edited.__setitem__("kinds", "eaeteaae"))),
        ("codes-not-a-list", with_table(
            lambda edited: edited.__setitem__("starts", "1,2"))),
        ("names-not-a-list", with_table(
            lambda edited: edited.__setitem__("names", {"0": "r"}))),
        ("kinds-not-a-string", with_table(
            lambda edited: edited.__setitem__("kinds",
                                              list(edited["kinds"])))),
        ("far-not-a-list", with_table(
            lambda edited: edited.__setitem__("far", {}))),
        ("column-missing", with_table(
            lambda edited: edited.__delitem__("values"))),
        ("extra-column", with_table(
            lambda edited: edited.__setitem__("parents", []))),
        ("table-not-an-object", dict(good, table=json.dumps(
            [table[name] for name in table]))),
        ("table-not-json", dict(good, table="[[1,")),
        ("table-decoded", dict(good, table=table)),
        ("table-nested-past-the-stack", dict(
            good, table="[" * 100000 + "]" * 100000)),
        # a slot's kind, name and value
        ("unknown-kind", with_table(set_kind(2, "x"))),
        ("blank-kind-on-a-held-slot", with_table(set_kind(3, "-"))),
        ("name-not-a-string", with_table(set_slot("names", 0, 7))),
        ("element-with-a-value", with_table(set_slot("values", 0, "v"))),
        ("text-with-a-name", with_table(set_slot("names", 3, "t"))),
        ("attribute-without-a-value", with_table(
            set_slot("values", 1, None))),
        ("name-on-a-blank-slot", with_table(then(
            blank, set_slot("names", -1, "z")))),
        ("value-on-a-blank-slot", with_table(then(
            blank, set_slot("values", -1, "z")))),
        # the codes
        ("code-a-boolean", with_table(set_slot("starts", 3, True))),
        ("code-a-string", with_table(set_slot("starts", 3, "3"))),
        ("code-a-float", with_table(set_slot("ends", 3, float(ends[3])))),
        ("code-negative", with_table(set_slot("starts", 3, -starts[3]))),
        ("code-zero-on-a-held-slot", with_table(set_codes(3, 0, 0))),
        ("end-zero-on-a-held-slot", with_table(set_slot("ends", 3, 0))),
        ("code-past-the-width", with_table(set_slot("ends", 0, 2 ** 64))),
        ("code-past-the-watermark-width", dict(with_table(
            set_slot("ends", 0, 2 ** 128)), max_code_len=65)),
        ("code-on-a-blank-slot", with_table(then(
            blank, set_codes(-1, ends[0] + 1, ends[0] + 2),
            set_slot("starts", -1, 0)))),
        ("codes-on-a-blank-slot", with_table(then(
            blank, set_codes(-1, ends[0] + 1, ends[0] + 2)))),
        # the intervals
        ("start-after-end", with_table(set_codes(2, ends[2], starts[2]))),
        ("start-equals-end", with_table(set_codes(2, starts[2], starts[2]))),
        ("duplicate-start", with_table(set_slot("starts", 4, starts[2]))),
        ("start-equals-an-end", with_table(
            set_codes(7, ends[5], ends[7]))),
        ("overlap-without-nesting", with_table(
            set_slot("ends", 2, (starts[4] + ends[4]) // 2))),
        ("end-equals-the-parents", with_table(set_slot("ends", 8, ends[0]))),
        ("node-inside-a-text", with_table(
            set_codes(7, starts[3] + 1, starts[3] + 2))),
        ("node-inside-an-attribute", with_table(
            set_codes(7, starts[1] + 1, starts[1] + 2))),
        ("attribute-after-the-first-child", with_table(
            set_codes(6, ends[7] + 1, ends[7] + 2))),
        ("second-root", with_table(
            add_slot("e", "z", None, ends[0] + 1, ends[0] + 2))),
        ("second-root-a-text", with_table(
            add_slot("t", None, "z", ends[0] + 1, ends[0] + 2))),
        ("root-not-an-element", with_table(
            add_slot("t", None, "z", 1, 2))),
        ("no-held-slot", with_table(lambda edited: edited.update(
            kinds="", names=[], values=[], starts=[], ends=[]))),
        # the far section
        ("far-row-short", with_far(lambda edited: edited["far"][0].pop())),
        ("far-row-not-a-list", with_far(
            lambda edited: edited["far"].__setitem__(0, "row"))),
        ("far-id-the-columns-cover", with_far(set_far(0, 3))),
        ("far-id-a-string", with_far(set_far(0, "2"))),
        ("far-id-a-float", with_far(set_far(0, 1e30))),
        ("far-id-a-boolean", with_far(set_far(0, True))),
        ("duplicate-far-id", with_far(
            lambda edited: edited["far"].append(list(edited["far"][0])))),
        ("far-kind-unknown", with_far(set_far(1, "x"))),
        ("far-kind-blank", with_far(set_far(1, "-"))),
        ("far-code-blank", with_far(set_far(4, 0))),
        ("far-code-a-string", with_far(set_far(5, "1"))),
        ("far-node-a-second-root", with_far(then(
            set_far(4, ends[0] + 1), set_far(5, ends[0] + 2)))),
        # the fields beside the table
        ("max-code-len-not-an-integer", dict(good, max_code_len="5")),
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
        # retired forms
        ("retired-node-row-form", _row_form(version)),
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

        with ReplicaStore() as replica:
            replica.bootstrap([document_payload(_version_of(DOC))], 0,
                              stream="s")
            with pytest.raises(RecoveryError):
                replica.bootstrap([payload], 1, stream="s")
            # the refused page replaced nothing
            assert replica.doc_ids() == ["d"]
            assert replica.applied_seq == 0


    @staticmethod
    def far_payload(far_id):
        """A good payload whose ``<a>`` slot, the parent of a text, is
        a far row of ``far_id``."""
        good, table = _table_payload()
        return _with_table(good, table,
                           lambda edited: _far_table(edited, far_id))

    @staticmethod
    def assert_far(version, far_id):
        """``version`` holds ``far_id`` in its tables' overflow dicts,
        found and parented as its tree says, and no column longer than
        its live ids give."""
        document, labeling = version.document, version.labeling
        assert far_id in document._far and far_id in labeling._far
        node = document.get(far_id)
        assert node.name == "a"
        assert document.parent_id(node.children[0].node_id) == far_id
        assert document.parent_id(far_id) == document.root.node_id
        assert labeling.start_of(far_id) is not None
        assert document.span < idtable.reach(len(document))
        assert len(labeling._starts) < idtable.reach(len(labeling))

    @pytest.mark.parametrize("far_id", [2 ** 62, -1], ids=["2**62", "-1"])
    def test_a_far_id_restores_through_the_overflow_dict(self, tmp_path,
                                                         far_id):
        """A row id far past the live count, or below 0, is a slot of
        no column: a restore, a restart and a bootstrap each keep it in
        the overflow dicts (or would refuse it with RecoveryError), and
        none allocates a column of that length."""
        payload = self.far_payload(far_id)
        tracemalloc.start()
        try:
            version = restore_document(payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024
        self.assert_far(version, far_id)
        wal_dir = str(tmp_path / "wal")
        manager = DurabilityManager(wal_dir, DurabilityPolicy("log"))
        manager.start()
        manager.log_open(payload)
        manager.close()
        with _durable_store(tmp_path, "log") as restarted:
            self.assert_far(restarted._entries["d"].published, far_id)
            assert restarted.text("d") == FAR_TEXT
        from repro.cluster import ReplicaStore

        with ReplicaStore() as replica:
            replica.bootstrap([payload], 0, stream="s")
            self.assert_far(replica._entries["d"].published, far_id)


def test_a_payload_refuses_a_cdqs_labeling():
    """A restore reads every code as CDBS, so a version labeled with
    CDQS is refused when its payload is written: its codes — those of
    ``0``/``1`` digits alike — would read back as other codes."""
    version = _version_of(FAR_TEXT)
    cdqs = ContainmentLabeling(encoder=CDQSEncoder()).build(
        version.document)
    assert any(set(code) <= {"0", "1"} for node in version.document.nodes()
               for code in cdqs.digits(node.node_id))
    with pytest.raises(LabelingError, match="CDBS"):
        document_payload(DocumentVersion(
            "d", 0, version.document, cdqs, version.budget))


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

    def test_a_replay_failure_is_a_recovery_error_on_every_host(
            self, tmp_path, monkeypatch):
        """A logged batch took effect where it was logged, so a host
        that cannot apply it is at fault: a restart, a replica and
        ``replay_oracle`` each raise a :class:`RecoveryError` naming the
        version — none skips the record and serves a state the log does
        not describe. An oracle fault that is no library error escapes
        as it is."""
        import repro.store.store as store_module
        from repro.cluster import ReplicaStore
        from repro.cluster.tokens import encode_token

        with _durable_store(tmp_path, "log") as store:
            source = store.enable_replication()
            store.open("d", DOC)
            title = store.document("d").root.children[0].children[0]
            store.submit("d", PUL([Rename(title.node_id, "headline")]))
            store.flush("d")
            stream = source.stream_id
            page = source.read(from_token=encode_token(stream, 0),
                               decode=False, max_events=10)
        wal_dir = str(tmp_path / "wal")
        assert replay_oracle(wal_dir)["d"][1] == 1

        def refusing(*args, **kwargs):
            raise NotApplicableError("refused")

        with monkeypatch.context() as patch:
            patch.setattr(store_module, "apply_batch_in_place", refusing)
            with pytest.raises(RecoveryError,
                               match="version 1 of 'd'.*refused"):
                _durable_store(tmp_path, "log")
            with ReplicaStore() as replica:
                replica.bootstrap([], 0, stream=stream)
                with pytest.raises(RecoveryError,
                                   match="version 1 of 'd'.*refused"):
                    replica.apply_records(page)
                # the open before it was applied; the cursor stops
                # short of the batch, which changed nothing
                assert replica.applied_seq == 1
                assert replica.version("d") == 0
                assert replica.text("d") == DOC
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.version("d") == 1
        monkeypatch.setattr(recovery_module, "apply_pul", refusing)
        with pytest.raises(RecoveryError, match="version 1 of 'd'.*refused"):
            replay_oracle(wal_dir)

        def faulty(*args, **kwargs):
            raise RuntimeError("an oracle fault")

        monkeypatch.setattr(recovery_module, "apply_pul", faulty)
        with pytest.raises(RuntimeError, match="an oracle fault"):
            replay_oracle(wal_dir)

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
            with ReplicaStore() as replica:
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
        found only after mutation) changes nothing, on any host of the
        log: nothing is published, relabeled, index-rebuilt, logged or
        fsynced for it, and the next good batch lands on the untouched
        label timeline everywhere. The log then holds exactly the
        batches that took effect, so every host replays each of them
        and skips none."""
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
            assert fsyncs.value == fsyncs_before   # nothing was logged
            state = load_durable_state(wal_dir, repair=False)
            assert [r["kind"] for r in state.records] == ["open"]
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
            assert [r["kind"] for r in records] == ["open", "batch"]
            assert records[1]["version"] == 1

            # a replica streaming record by record, in order and
            # under at-least-once rewinds
            for rewind in (0.0, 0.5):
                rng = random.Random(7)
                with ReplicaStore() as replica:
                    replica.bootstrap([], seq0, stream=source.stream_id)
                    position = 0
                    while position < len(events):
                        event = events[position]
                        replica.apply_records({"events": [event],
                                               "token": event["token"]})
                        position += 1
                        if rng.random() < rewind:
                            position = rng.randrange(position + 1)
                    assert equals_leader(replica)

        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.recovery.replayed_batches == 1
            assert recovered.recovery.skipped_records == 0
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
        with ReplicaStore() as replica:
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

    def test_environmental_apply_failure_leaves_no_record(
            self, tmp_path, workload, monkeypatch):
        """A batch whose application fails for a reason of the host (a
        simulated mid-apply crash) is refused with no record and no
        fsync; the same pending queue, flushed again, is logged once as
        the next version, and a restart replays every logged batch,
        skipping none, to the bytes the leader and the oracle hold."""
        import repro.store.store as store_module

        text, batches, __ = workload
        real_apply = store_module.apply_batch_in_place
        wal_dir = str(tmp_path / "wal")

        def logged_versions():
            return [record["version"] for record in
                    load_durable_state(wal_dir, repair=False).records
                    if record["kind"] == "batch"]

        with _durable_store(tmp_path, "log") as store:
            store.open("d", text)
            _run_session(store, batches[:2])
            for client, pul in batches[2]:
                store.submit("d", pul.copy(), client=client)
            fsyncs = store.obs.counter("repro_wal_fsyncs_total")
            fsyncs_before = fsyncs.value

            def exploding_apply(*args, **kwargs):
                raise ReproError("simulated mid-apply crash")

            monkeypatch.setattr(store_module, "apply_batch_in_place",
                                exploding_apply)
            with pytest.raises(ReproError):
                store.flush("d")
            assert fsyncs.value == fsyncs_before
            assert logged_versions() == [1, 2]
            monkeypatch.setattr(store_module, "apply_batch_in_place",
                                real_apply)
            store.flush("d")  # same pending, now succeeds
            assert logged_versions() == [1, 2, 3]
            before_text = store.text("d")
            before_version = store.version("d")
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.recovery.replayed_batches == 3
            assert recovered.recovery.skipped_records == 0
            assert recovered.text("d") == before_text
            assert recovered.version("d") == before_version == 3
        assert replay_oracle(wal_dir)["d"] == (before_text, 3)

    def test_a_retired_batch_record_is_refused_by_every_reader(
            self, tmp_path):
        """Logs written before batch records held the reduced batch hold
        the coalesced one, labels attached, which replay reduced again.
        Applied as it stands such a batch could give another tree or
        other ids, so recovery, ``replay_oracle`` and a replica's
        ``apply_records`` each refuse a batch record whose PUL carries
        labels with a typed :class:`RecoveryError` naming the retired
        form."""
        from repro.cluster import ReplicaStore
        from repro.cluster.tokens import encode_token
        from repro.pul.serialize import pul_to_xml
        from repro.store.durability.recovery import encode_payload
        from repro.store.durability.wal import WalWriter
        from repro.xdm.parser import parse_document

        document = parse_document(DOC)
        title = next(document.elements_by_name("title"))
        labeled = PUL([Rename(title.node_id, "headline")]).attach_labels(
            ContainmentLabeling().build(document))
        assert labeled.labels
        with _durable_store(tmp_path, "log") as store:
            store.open("d", DOC)
        [opened] = load_durable_state(str(tmp_path / "wal"),
                                      repair=False).records
        records = [opened, {"kind": "batch", "doc_id": "d", "version": 1,
                            "clients": 1, "pul": pul_to_xml(labeled)}]
        old = tmp_path / "old"
        os.makedirs(str(old / "wal"))
        writer = WalWriter(str(old / "wal" / "wal-00000000.log"))
        for record in records:
            writer.append(encode_payload(record))
        writer.close()
        with pytest.raises(RecoveryError, match="retired form"):
            _durable_store(old, "log")
        with pytest.raises(RecoveryError, match="retired form"):
            replay_oracle(str(old / "wal"))
        with ReplicaStore() as replica:
            replica.bootstrap([], 0, stream="s")
            with pytest.raises(RecoveryError, match="retired form"):
                replica.apply_records({
                    "events": [{"seq": seq, "record": record}
                               for seq, record in enumerate(records)],
                    "token": encode_token("s", len(records))})
            assert replica.applied_seq == 1
            assert replica.version("d") == 0

    def test_a_batch_refused_after_mutation_leaves_the_log_as_it_was(
            self, tmp_path):
        """The duplicate attribute is found only after the working copy
        was mutated. Refused there, the batch leaves every file of the
        log byte for byte as it was and the change feed without an
        event, and the next good batch is logged once, as the next
        version — a CDC event whose ``pul`` is the reduced batch,
        without labels."""
        from repro.cluster.tokens import encode_token
        from repro.xdm.parser import parse_document

        document = parse_document(DOC)
        paper = next(document.elements_by_name("paper")).node_id
        title = next(document.elements_by_name("title")).node_id
        wal_dir = str(tmp_path / "wal")

        def log_bytes():
            files = {}
            for name in sorted(os.listdir(wal_dir)):
                if name != "owner.lock":
                    with open(os.path.join(wal_dir, name), "rb") as handle:
                        files[name] = handle.read()
            return files

        with _durable_store(tmp_path, "log") as store:
            source = store.enable_replication()
            store.open("d", DOC)
            store.submit("d", PUL([Rename(title, "headline")]))
            assert store.flush("d").version == 1
            before = log_bytes()
            next_seq = source.next_seq
            store.submit("d", PUL([InsertAttributes(
                paper, [Node.attribute("year", "1999")])]))
            with pytest.raises(NotApplicableError):
                store.flush("d")
            assert log_bytes() == before
            assert source.next_seq == next_seq
            store.discard_pending("d")
            store.submit("d", PUL([InsertAttributes(
                paper, [Node.attribute("lang", "en")])]))
            assert store.flush("d").version == 2
            events = source.read(
                from_token=encode_token(source.stream_id, next_seq),
                max_events=10)["events"]
        assert [(event["kind"], event["version"]) for event in events] \
            == [("batch", 2)]
        assert "label=" not in events[0]["pul"]
        assert [(record["doc_id"], record["version"]) for record in
                load_durable_state(wal_dir, repair=False).records
                if record["kind"] == "batch"] == [("d", 1), ("d", 2)]

    @pytest.mark.parametrize("seed", range(3))
    def test_logged_versions_are_contiguous_under_failing_batches(
            self, tmp_path, seed):
        """A random schedule of good batches, batches refused while
        coalescing (two clients renaming one node) and batches refused
        after mutation (a duplicate attribute), over two documents: each
        document's logged versions run 1, 2, ... without a gap or a
        repeat up to its published version, and a restart and the
        oracle land on the leader's state, replaying every record."""
        import random

        from repro.xdm.parser import parse_document

        rng = random.Random(seed)
        document = parse_document(DOC)
        paper = next(document.elements_by_name("paper")).node_id
        title = next(document.elements_by_name("title")).node_id
        root = document.root.node_id
        wal_dir = str(tmp_path / "wal")
        with _durable_store(tmp_path, "log") as store:
            for doc_id in ("a", "b"):
                store.open(doc_id, DOC)
            for step in range(30):
                doc_id = rng.choice("ab")
                kind = rng.choice(("good", "good", "conflict", "duplicate"))
                if kind == "good":
                    store.submit(doc_id, PUL([InsertIntoAsLast(
                        root, [Node.element("x{}".format(step))])]))
                elif kind == "conflict":
                    for client in ("alice", "bob"):
                        store.submit(doc_id, PUL([Rename(
                            title, client)]), client=client)
                else:
                    store.submit(doc_id, PUL([InsertAttributes(
                        paper, [Node.attribute("year", "1999")])]))
                try:
                    store.flush(doc_id)
                except ReproError:
                    assert kind != "good"
                    store.discard_pending(doc_id)
                else:
                    assert kind == "good"
            final = {doc_id: _full_state(store, doc_id)
                     for doc_id in ("a", "b")}
        logged = {"a": [], "b": []}
        for record in load_durable_state(wal_dir, repair=False).records:
            if record["kind"] == "batch":
                logged[record["doc_id"]].append(record["version"])
        for doc_id, versions in logged.items():
            assert versions == list(
                range(1, final[doc_id]["version"] + 1))
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.recovery.skipped_records == 0
            assert recovered.recovery.replayed_batches == sum(
                map(len, logged.values()))
            for doc_id in ("a", "b"):
                assert _full_state(recovered, doc_id) == final[doc_id]
        oracle = replay_oracle(wal_dir)
        for doc_id in ("a", "b"):
            assert oracle[doc_id] == (final[doc_id]["text"],
                                      final[doc_id]["version"])


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
            # written one document at a time, the file is the framed
            # open record of each exported payload, then the seal
            docs = store.export_state()["docs"]
            with open(store._durability._snap_path(generation),
                      "rb") as handle:
                assert handle.read() == b"".join(
                    encode_record(recovery_module.encode_payload(record))
                    for record in [{"kind": "open", "doc": doc}
                                   for doc in docs]
                    + [{"kind": "snapshot", "generation": generation,
                        "docs": len(docs)}])
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
        with DocumentStore() as store:
            assert store.snapshot() is None

    def test_load_state_reports_generations(self, tmp_path, workload):
        text, batches, __ = workload
        with _durable_store(tmp_path, "log+snapshot:3") as store:
            store.open("d", text)
            _run_session(store, batches)
        state = load_durable_state(str(tmp_path / "wal"))
        assert state.snapshot_generation is not None
        assert state.clean

    @pytest.mark.parametrize("fault", ["commit_snapshot", "install_file"])
    def test_a_failed_compaction_keeps_the_batch_that_made_it_due(
            self, tmp_path, monkeypatch, fault):
        """A due compaction runs after its batch took effect, so when
        it fails (a full disk, in the write or in the rename) the flush
        still returns that batch's result with its queue emptied: the
        failure is counted, the ``.tmp`` file is gone and the next
        flush applies its own batch once. The sealed segment stays, so
        a restart, ``replay_oracle`` and a replica all agree. An
        explicit snapshot still raises."""
        import errno

        from repro.cluster import ReplicaStore
        from repro.cluster.tokens import encode_token

        def full_disk(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        wal_dir = str(tmp_path / "wal")
        with _durable_store(tmp_path, "log+snapshot:1") as store:
            source = store.enable_replication()
            seq0 = source.next_seq
            store.open("d", "<r/>")
            if fault == "commit_snapshot":
                monkeypatch.setattr(DurabilityManager, "commit_snapshot",
                                    full_disk)
            else:
                monkeypatch.setattr(recovery_module, "install_file",
                                    full_disk)
            failures = store.obs.counter(
                "repro_store_snapshot_failures_total")
            store.submit_xquery("d", "insert node <x/> as last into /r")
            assert store.flush("d").version == 1
            assert store.stats("d")["pending"] == 0
            assert failures.value == 1
            assert not [name for name in os.listdir(wal_dir)
                        if name.endswith(".tmp")]
            store.submit_xquery("d", "insert node <y/> as last into /r")
            assert store.flush("d").version == 2
            assert failures.value == 2
            with pytest.raises(OSError):
                store.snapshot()
            before = _full_state(store, "d")
            assert before["text"] == "<r><x/><y/></r>"
            events = source.read(
                from_token=encode_token(source.stream_id, seq0),
                decode=False, max_events=10)["events"]
        with ReplicaStore() as replica:
            replica.bootstrap([], seq0, stream=source.stream_id)
            replica.apply_records({"events": events,
                                   "token": events[-1]["token"]})
            assert _full_state(replica, "d") == before
        with _durable_store(tmp_path, "log+snapshot:1") as recovered:
            assert recovered.recovery.replayed_batches == 2
            assert _full_state(recovered, "d") == before
        assert replay_oracle(wal_dir)["d"] == (before["text"], 2)


class TestSnapshotFile:
    """A snapshot is a segment of framed ``open`` records closed by a
    seal naming its generation and count. A file that is anything else
    — cut short, unsealed, sealed for another generation or count,
    holding another record kind, damaged — is skipped, never restored
    with fewer documents: its segments compacted away, every reader
    finds the segment chain broken."""

    DOCS = ("a", "b", "c")

    def compacted(self, tmp_path):
        """A directory whose state is all in a snapshot of three
        documents; returns the snapshot's path and its framed
        records."""
        with _durable_store(tmp_path, "log") as store:
            for doc_id in self.DOCS:
                store.open(doc_id, DOC)
            path = store._durability._snap_path(store.snapshot())
        with open(path, "rb") as handle:
            data = handle.read()
        payloads, __, clean = scan_records(data)
        assert clean
        assert [recovery_module.decode_payload(payload)["kind"]
                for payload in payloads] \
            == ["open"] * len(self.DOCS) + ["snapshot"]
        frames = []
        for payload in payloads:
            frames.append(data[:len(encode_record(payload))])
            data = data[len(frames[-1]):]
        return path, frames

    @staticmethod
    def frame(record):
        return encode_record(recovery_module.encode_payload(record))

    @staticmethod
    def write(path, *frames):
        with open(path, "wb") as handle:
            handle.write(b"".join(frames))

    @staticmethod
    def assert_refused(tmp_path):
        wal_dir = str(tmp_path / "wal")
        for read in (lambda: load_durable_state(wal_dir, repair=False),
                     lambda: _durable_store(tmp_path, "log"),
                     lambda: replay_oracle(wal_dir)):
            with pytest.raises(RecoveryError,
                               match="segment chain has gaps"):
                read()

    def test_a_snapshot_cut_at_a_frame_boundary_is_skipped(self, tmp_path):
        path, frames = self.compacted(tmp_path)
        for kept in range(len(frames)):
            self.write(path, *frames[:kept])
            self.assert_refused(tmp_path)

    @pytest.mark.parametrize("seal", [
        None,
        {"kind": "snapshot", "generation": 1, "docs": 3},
        {"kind": "snapshot", "generation": 0, "docs": 2},
        {"kind": "snapshot", "generation": 0, "docs": 4},
        {"kind": "snapshot", "generation": 0}],
        ids=["missing", "generation", "fewer", "more", "no-count"])
    def test_a_wrong_seal_is_skipped(self, tmp_path, seal):
        path, frames = self.compacted(tmp_path)
        opens = frames[:-1]
        if seal is None:
            self.write(path, *opens)
        else:
            self.write(path, *opens, self.frame(seal))
        self.assert_refused(tmp_path)

    @pytest.mark.parametrize("record", [
        {"kind": "close", "doc_id": "a"},
        {"kind": "batch", "doc_id": "a", "version": 1, "clients": 1,
         "pul": "<x/>"},
        {"doc_id": "a", "kind": "open"}],
        ids=["close", "batch", "open-without-doc"])
    def test_a_record_of_another_kind_before_the_seal_is_skipped(
            self, tmp_path, record):
        path, frames = self.compacted(tmp_path)
        self.write(path, frames[0], self.frame(record), *frames[2:])
        self.assert_refused(tmp_path)

    def test_a_flipped_byte_is_skipped(self, tmp_path):
        path, frames = self.compacted(tmp_path)
        offset = 0
        for frame in frames:
            for position in (4, 8, len(frame) // 2, len(frame) - 1):
                data = bytearray(b"".join(frames))
                data[offset + position] ^= 0x01
                self.write(path, bytes(data))
                self.assert_refused(tmp_path)
            offset += len(frame)

    def test_each_document_is_bounded_on_its_own(self, tmp_path,
                                                 monkeypatch):
        """With the frame bound between one document's record and the
        three of them, the store compacts and restarts exactly; one
        document's record past it is refused and removes its ``.tmp``
        file, and the directory still restarts."""
        wal_dir = str(tmp_path / "wal")
        with _durable_store(tmp_path, "log") as store:
            for doc_id in self.DOCS:
                store.open(doc_id, DOC)
            before = {doc_id: _full_state(store, doc_id)
                      for doc_id in self.DOCS}
            sizes = [len(recovery_module.encode_payload(
                {"kind": "open", "doc": doc}))
                for doc in store.export_state()["docs"]]
            assert max(sizes) < sum(sizes)
            monkeypatch.setattr(wal, "MAX_PAYLOAD", max(sizes))
            generation = store.snapshot()
            monkeypatch.setattr(wal, "MAX_PAYLOAD", max(sizes) - 1)
            with pytest.raises(DurabilityError, match="frame bound"):
                store.snapshot()
            assert not [name for name in os.listdir(wal_dir)
                        if name.endswith(".tmp")]
        monkeypatch.setattr(wal, "MAX_PAYLOAD", max(sizes))
        with _durable_store(tmp_path, "log") as recovered:
            assert recovered.recovery.snapshot_generation == generation
            assert {doc_id: _full_state(recovered, doc_id)
                    for doc_id in self.DOCS} == before
        assert replay_oracle(wal_dir) == {
            doc_id: (state["text"], 0) for doc_id, state in before.items()}

    def test_the_retired_form_is_refused_by_every_reader(self, tmp_path):
        """A snapshot written as one record listing every document is
        the typed :class:`RecoveryError` naming the retired form — from
        loading the directory, a restart and ``replay_oracle`` — never
        a directory restored from it."""
        with _durable_store(tmp_path, "log") as store:
            store.open("a", DOC)
            docs = store.export_state()["docs"]
        old = tmp_path / "old" / "wal"
        os.makedirs(str(old))
        self.write(str(old / "snapshot-00000000.snap"), self.frame(
            {"kind": "snapshot", "generation": 0, "docs": docs}))
        for read in (lambda: load_durable_state(str(old), repair=False),
                     lambda: _durable_store(tmp_path / "old", "log"),
                     lambda: replay_oracle(str(old))):
            with pytest.raises(RecoveryError, match="retired form"):
                read()

    def test_a_restart_holds_one_document_at_a_time(self, tmp_path):
        """A restart decodes the snapshot's ``open`` records one at a
        time and lets go of each raw record as it does: its traced
        peak stays within a small share of the snapshot above the
        restored store, where decoding the whole snapshot first would
        hold about the snapshot's size again."""
        with _durable_store(tmp_path, "log") as store:
            for seed in range(24):
                store.open(seed, serialize(generate_xmark(scale=0.004,
                                                          seed=seed)))
            generation = store.snapshot()
            size = os.path.getsize(store._durability._snap_path(generation))
        tracemalloc.start()
        try:
            recovered = _durable_store(tmp_path, "log")
            resident, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with recovered:
            assert len(recovered.doc_ids()) == 24
        assert peak - resident < size / 4, (peak - resident, size)
