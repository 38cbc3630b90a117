"""Differential fuzz harness for the index subsystem.

Random documents take random PUL batches through the resident store
(incremental index maintenance) while random path queries run through
all three engines. The properties pinned after **every** flush:

* **engine identity** — ``walk``, ``auto`` and ``index`` return the
  same serialized nodes, and all three equal the walker run over the
  :class:`StatelessBaseline`'s independently maintained tree;
* **index = rebuild** — the published version's maintained index
  equals :func:`build_index` run from scratch on that version, also
  across full-relabel fallbacks (a tight headroom budget is drawn in
  some examples to force them mid-session);
* **recovery parity** — a store recovered from the WAL serves the same
  bytes for every query as the leader that wrote it (the restore-time
  index rebuild meets the leader's incrementally maintained one);
* **one schedule, every host** — the leader's log then drives every
  other host of the replay path (crash recovery; a WAL-less replica
  streaming page by page under at-least-once rewinds and one
  re-bootstrap from a paged ``export`` whose anchor precedes its
  payloads): at every log position each host equals the leader in
  text, label codes and index, and the final text equals the stateless
  ``replay_oracle``.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.dispatch import StoreDispatcher
from repro.cluster import ReplicaStore
from repro.cluster.tokens import decode_token, encode_token
from repro.errors import ReproError
from repro.index import build_index
from repro.pul.ops import (
    InsertAttributes,
    InsertIntoAsFirst,
    Rename,
    ReplaceNode,
)
from repro.pul.pul import PUL
from repro.store import (
    DocumentStore,
    DurabilityPolicy,
    StatelessBaseline,
    replay_oracle,
)
from repro.workloads import generate_client_batches, generate_xmark
from repro.xdm.node import Node
from repro.xdm.serializer import serialize, serialize_node
from repro.xquery import parse_path
from repro.xquery.xpath import evaluate_path

from tests.strategies import applicable_puls, documents

#: the strategies.py document alphabet, plus the names PULs introduce
_STEP_NAMES = ("a", "b", "c", "d", "e", "rn1", "rn2")
_ATTR_NAMES = ("k0", "k1", "g1")
_PREDICATES = ('[@k0 = "x"]', '[@k1 = "y"]', '[@g1 = "w"]',
               "[a]", "[b]", "[text()]",
               "[1]", "[2]", "[last()]")


@st.composite
def path_queries(draw):
    """A parseable path over the random-document alphabet: child and
    descendant axes, name/wildcard/attribute/text tests, and a mix of
    exists/compare/positional predicates."""
    parts = []
    length = draw(st.integers(1, 3))
    for position in range(length):
        axis = draw(st.sampled_from(("/", "//")))
        kind = draw(st.sampled_from(
            ("name", "name", "name", "wild", "attr", "text")))
        if kind == "name":
            step = draw(st.sampled_from(_STEP_NAMES))
            if draw(st.booleans()):
                step += draw(st.sampled_from(_PREDICATES))
        elif kind == "wild":
            step = "*"
        elif kind == "attr":
            step = "@" + draw(st.sampled_from(_ATTR_NAMES))
        else:
            step = "text()"
        parts.append(axis + step)
    return "".join(parts)


def assert_engines_agree(store, baseline, queries):
    """One checkpoint of the differential property (docstring above)."""
    for query in queries:
        walk = store.query("d", query, engine="walk")
        auto = store.query("d", query, explain=True)
        forced = store.query("d", query, engine="index")
        oracle = [serialize_node(node) for node in evaluate_path(
            parse_path(query), document=baseline.document("d"))]
        assert walk["nodes"] == auto["nodes"] == forced["nodes"] \
            == oracle
        assert auto["count"] == len(oracle)


def assert_index_is_rebuild(store):
    version = store._entries["d"].published
    assert version.index == build_index(version.document,
                                        version.labeling)


def _state(version):
    """Everything a host of the replay path must reproduce of one
    published version: bytes, digit-exact label codes, index."""
    labeling = version.labeling
    codes = {}
    for node in version.document.nodes():
        label = labeling.label_of(node.node_id)
        codes[node.node_id] = (label.start, label.end)
    return serialize(version.document), codes, version.index


def _assert_tracks_leader(host, timeline, position):
    """``host`` has applied ``position`` log records; where the leader
    stood still at that position (between flushes), they agree."""
    expected = timeline.get(position)
    if expected is not None:
        assert _state(host._entries["d"].published) == expected


class _Schedule:
    """The special steps every schedule contains besides its random
    PUL rounds; each returns the submissions of one flush attempt as
    ``[(client, pul), ...]``."""

    def __init__(self):
        self.serial = 50000

    def _stamped(self, tree):
        for node in tree.iter_subtree():
            node.node_id = self.serial
            self.serial += 1
        return tree

    def duplicate_attribute(self, root):
        """Run twice back to back: the second is a *failing batch* —
        logged write-ahead, then rejected by the applier."""
        attr = self._stamped(Node.attribute("dup", "w"))
        return [("c", PUL([InsertAttributes(root.node_id, [attr])]))]

    def conflict(self, root):
        """Incompatible parallel renames: rejected while coalescing,
        before anything is logged."""
        return [("c", PUL([Rename(root.node_id, "rn1")])),
                ("other", PUL([Rename(root.node_id, "rn2")]))]

    def hot_spot(self, root):
        tree = Node.element("b")
        tree.append_attribute(Node.attribute("k0", "x"))
        tree.append_child(Node.text("w"))
        return [("c", PUL([InsertIntoAsFirst(root.node_id,
                                             [self._stamped(tree)])]))]

    def replace_root(self, root):
        """A root-level parent-site op: the sync fallback of every
        consumer of the batch classification."""
        tree = Node.element("a")
        tree.append_child(Node.element("b"))
        return [("c", PUL([ReplaceNode(root.node_id,
                                       [self._stamped(tree)])]))]


def _durable(store_class, wal_dir, headroom):
    return store_class(workers=1, backend="serial",
                       max_code_length=headroom,
                       durability=DurabilityPolicy("log", fsync=False),
                       wal_dir=wal_dir)


def _stream_to_replica(data, source, seq0, headroom, timeline, final,
                       export):
    """Host: a WAL-less replica streaming one record per page.

    Drawn rewinds re-deliver pages from an earlier token (skipped by
    sequence). One drawn re-bootstrap installs ``export`` — the pages
    of a paged state export, the first taken when the leader stood at
    the anchor, the rest at ``pinned_at`` — and streams on from the
    anchor: until the stream passes ``pinned_at`` every record it
    re-delivers is one the payloads already hold, version-skipped, so
    the host stands still at the ``pinned`` state.
    """
    first, payloads, pinned_at, pinned = export
    stream = source.stream_id
    total = source.next_seq - seq0
    # delivery position -> how far the subscriber falls back there
    rewinds = data.draw(st.dictionaries(
        st.integers(1, total), st.integers(1, total), max_size=4),
        label="rewinds")
    rebootstrap_at = data.draw(st.integers(0, total),
                               label="re-bootstrap after page")
    with ReplicaStore(workers=1, backend="serial",
                      max_code_length=headroom) as replica:
        replica.bootstrap([], seq0, stream=stream)
        position = pages = 0
        rebootstrapped = False
        while not (rebootstrapped
                   and replica.applied_seq == source.next_seq):
            if not rebootstrapped and (
                    pages == rebootstrap_at
                    or replica.applied_seq == source.next_seq):
                replica.bootstrap(payloads, first["seq"],
                                  stream=first["stream"])
                position = first["seq"] - seq0
                rebootstrapped = True
            else:
                page = source.read(
                    from_token=encode_token(stream, seq0 + position),
                    decode=False, max_events=1)
                replica.apply_records(page)
                pages += 1
                position = decode_token(page["token"])[1] - seq0
                position = max(0, position - rewinds.pop(position, 0))
            applied = replica.applied_seq - seq0
            if rebootstrapped and applied < pinned_at:
                assert _state(replica._entries["d"].published) == pinned
            else:
                _assert_tracks_leader(replica, timeline, applied)
        assert replica.doc_ids() == ["c", "d"]
        assert _state(replica._entries["d"].published) == final


def _recover(wal_dir, headroom, timeline, final):
    """Host: crash recovery, checked after every replayed record."""

    class CheckedRecovery(DocumentStore):
        applied = 0

        def _apply_record(self, record):
            outcome = super()._apply_record(record)
            self.applied += 1
            _assert_tracks_leader(self, timeline, self.applied)
            return outcome

    with _durable(CheckedRecovery, wal_dir, headroom) as recovered:
        assert recovered.applied == max(timeline)
        assert _state(recovered._entries["d"].published) == final


class TestEngineDifferential:
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_one_schedule_every_host(self, data):
        document = data.draw(documents(), label="document")
        text = serialize(document)
        headroom = data.draw(st.sampled_from((64, 64, 8)),
                             label="max_code_length")
        queries = data.draw(
            st.lists(path_queries(), min_size=1, max_size=4),
            label="queries")
        steps = data.draw(st.permutations(
            ["pul"] * data.draw(st.integers(1, 3), label="rounds")
            + ["failing batch", "conflict", "hot spot", "root"]),
            label="schedule")
        schedule = _Schedule()
        baseline = StatelessBaseline(measure_parse=False)
        with tempfile.TemporaryDirectory() as wal_dir:
            with _durable(DocumentStore, wal_dir, headroom) as store:
                source = store.enable_replication()
                dispatcher = StoreDispatcher(store)
                seq0 = source.next_seq
                #: log position -> the leader's state while it stood there
                timeline = {}

                def flush(submissions):
                    """One flush attempt on leader and baseline: same
                    outcome, same bytes, maintained index = rebuild, all
                    engines agree — and the leader's state enters the
                    timeline under its log position."""
                    before = store._entries["d"].published
                    outcomes = []
                    for executor in (store, baseline):
                        for client, pul in submissions:
                            executor.submit("d", pul.copy(), client=client)
                        try:
                            executor.flush("d")
                            outcomes.append("applied")
                        except ReproError:
                            # a dynamic error both sides must reject
                            # identically, leaving state untouched
                            executor.discard_pending("d")
                            outcomes.append("rejected")
                    assert outcomes[0] == outcomes[1]
                    assert store.text("d") == baseline.text("d")
                    # asked twice: the version's memoized text is still
                    # the published tree, failed batch or not
                    assert store.text("d") == serialize(
                        store._entries["d"].published.document)
                    assert_index_is_rebuild(store)
                    assert_engines_agree(store, baseline, queries)
                    position = source.next_seq - seq0
                    if position in timeline:
                        # nothing was logged: nothing may have changed
                        assert store._entries["d"].published is before
                    timeline[position] = _state(
                        store._entries["d"].published)
                    return outcomes[0]

                # a side document paging ahead of "d", so a paged
                # export's first page (the anchor) can precede the page
                # carrying "d"
                store.open("c", "<s/>")
                store.open("d", text)
                baseline.open("d", text)
                timeline[source.next_seq - seq0] = _state(
                    store._entries["d"].published)
                assert_engines_agree(store, baseline, queries)
                exports_at = sorted(data.draw(st.lists(
                    st.integers(0, len(steps)), min_size=2, max_size=2),
                    label="export pages before step"))
                for index, step in enumerate(steps + [None]):
                    if index == exports_at[0]:
                        first = dispatcher.export(max_docs=1,
                                                  format="state")
                    if index == exports_at[1]:
                        rest = dispatcher.export(
                            cursor=first["cursor"], max_docs=1,
                            format="state")
                        assert rest["done"]
                        export = (first, first["docs"] + rest["docs"],
                                  source.next_seq - seq0,
                                  _state(store._entries["d"].published))
                    if step is None:
                        break
                    resident = store._entries["d"].published.document
                    if step == "pul":
                        pul = data.draw(
                            applicable_puls(resident, max_ops=5,
                                            stamp_ids=True), label="pul")
                        if len(pul):
                            flush([("c", pul)])
                    elif step == "failing batch":
                        flush(schedule.duplicate_attribute(resident.root))
                        assert flush(schedule.duplicate_attribute(
                            resident.root)) == "rejected"
                    elif step == "conflict":
                        assert flush(
                            schedule.conflict(resident.root)) == "rejected"
                    elif step == "root":
                        flush(schedule.replace_root(resident.root))
                    else:
                        for __ in range(4 if headroom > 8 else 16):
                            flush(schedule.hot_spot(resident.root))
                            if headroom == 8 and \
                                    store.stats("d")["full_relabels"]:
                                break
                if headroom == 8:  # the budget actually forced a relabel
                    assert store.stats("d")["full_relabels"] >= 1
                kinds = [item["record"]["kind"] for item in source.read(
                    from_token=encode_token(source.stream_id, seq0),
                    decode=False, max_events=500)["events"]]
                # a failing batch ships its write-ahead record, nothing else
                assert set(kinds) == {"open", "batch"}
                final = _state(store._entries["d"].published)
                _stream_to_replica(data, source, seq0, headroom,
                                   timeline, final, export)
            _recover(wal_dir, headroom, timeline, final)
            assert replay_oracle(wal_dir)["d"][0] == final[0]

    @settings(deadline=None, max_examples=25)
    @given(queries=st.lists(path_queries(), min_size=1, max_size=5))
    def test_agreement_across_forced_relabel_fallbacks(self, queries):
        """A hot-spot session under a tight headroom budget: the store
        crosses full-relabel (and index-rebuild) boundaries while the
        three engines keep agreeing on every query."""
        from repro.pul.ops import InsertIntoAsFirst
        from repro.pul.pul import PUL
        from repro.xdm import parse_document
        from repro.xdm.node import Node

        text = "<a><b><c>t</c></b></a>"
        hot_spot = next(n.node_id
                        for n in parse_document(text).nodes()
                        if n.is_element and n.name == "b")
        serial = 1000
        baseline = StatelessBaseline(measure_parse=False)
        with DocumentStore(workers=1, backend="serial",
                           max_code_length=8) as store:
            store.open("d", text)
            baseline.open("d", text)
            rebuilds = 0
            for __ in range(5):
                tree = Node.element("b")
                tree.append_attribute(Node.attribute("k0", "x"))
                tree.append_child(Node.text("w"))
                for node in tree.iter_subtree():
                    node.node_id = serial
                    serial += 1
                pul = PUL([InsertIntoAsFirst(hot_spot, [tree])])
                for executor in (store, baseline):
                    executor.submit("d", pul.copy(), client="c")
                result = store.flush("d")
                baseline.flush("d")
                rebuilds += result.index_maintenance == "rebuild"
                assert store.text("d") == baseline.text("d")
                assert_index_is_rebuild(store)
                assert_engines_agree(store, baseline, queries)
            assert rebuilds >= 1  # the budget actually forced fallbacks


class TestRecoveryParity:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_recovered_store_serves_identical_queries(self, tmp_path,
                                                      seed):
        document = generate_xmark(scale=0.02, seed=7)
        batches, __ = generate_client_batches(
            document, clients=2, rounds=3, ops_per_round=8, seed=seed)
        queries = ("//item", "//item/name", "//@id",
                   "/site//keyword", "//text/text()")
        wal_dir = str(tmp_path / "wal")
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=wal_dir) as store:
            store.open("d", serialize(document))
            for submissions in batches:
                for client, pul in submissions:
                    store.submit("d", pul.copy(), client=client)
                store.flush("d")
            assert_index_is_rebuild(store)
            leader = {q: store.query("d", q) for q in queries}
            leader_index = store._entries["d"].published.index
            expected = store.text("d")
        with DocumentStore(workers=1, backend="serial",
                           durability="log", wal_dir=wal_dir) as twin:
            assert twin.text("d") == expected
            # restore builds from scratch; the leader maintained
            # incrementally — same index either way
            assert twin._entries["d"].published.index == leader_index
            for query in queries:
                served = twin.query("d", query, engine="index")
                assert served["nodes"] == leader[query]["nodes"]
