"""The headroom budget travels with the document.

``max_code_length`` is the budget a document is opened under: a batch
that leaves a code longer than it is followed by a full relabel. The
payload every ``open`` record, snapshot and ``export`` page carries
holds it, so a restart, a replica and ``repro store recover`` started
with another budget relabel after the same batches as the leader did —
and agree on label digits, not only on text (store README, invariant
7). A payload written before payloads carried a budget restores under
the restoring host's.
"""

import hashlib
import os

import pytest

from repro.api.dispatch import StoreDispatcher
from repro.cluster import ReplicaStore
from repro.labeling import ContainmentLabeling
from repro.pul.ops import InsertBefore
from repro.pul.pul import PUL
from repro.pul.serialize import tree_to_xml
from repro.store import DocumentStore
from repro.store.durability import document_payload, restore_document
from repro.xdm.node import Node

HOT = "<r><a/><b/></r>"
INSERTS = 12
TIGHT, LOOSE = 6, 64


def _labels(store):
    """``(max code length, full relabels, label digits)`` of ``d``."""
    version = store._entries["d"].published
    return (version.labeling.max_code_length, version.full_relabels,
            {node_id: version.labeling.exchange_label(node_id).to_string()
             for node_id in version.labeling.as_mapping()})


def _hot_spot(store, inserts=INSERTS, doc_id="d"):
    """``inserts`` one-flush inserts at one hot spot: before ``<b/>``,
    so every fresh code lands between the same two neighbours."""
    hot = store.document(doc_id).root.children[-1].node_id
    for __ in range(inserts):
        store.submit(doc_id, PUL([InsertBefore(hot, [Node.element("x")])]))
        store.flush(doc_id)


@pytest.fixture()
def leader(tmp_path):
    """A replicating leader of ``d`` under the tight budget, with the
    hot-spot log written; yields ``(store, wal_dir, its labels)``."""
    wal_dir = str(tmp_path / "leader")
    store = DocumentStore(max_code_length=TIGHT, durability="log",
                          wal_dir=wal_dir)
    try:
        store.enable_replication()
        store.open("d", HOT)
        _hot_spot(store)
        written = _labels(store)
        # the probe is only a probe if the budget bit
        assert written[1] > 0
        yield store, wal_dir, written
    finally:
        store.close()


def test_a_restart_under_another_budget_keeps_the_logged_one(leader):
    store, wal_dir, written = leader
    store.close()
    with DocumentStore(max_code_length=LOOSE,
                       durability="log", wal_dir=wal_dir) as recovered:
        assert _labels(recovered) == written
        assert recovered._entries["d"].published.budget == TIGHT


@pytest.mark.parametrize("bootstrap_after", [0, 5])
def test_a_replica_under_another_budget_keeps_the_logged_one(
        tmp_path, bootstrap_after):
    """Bootstrapped before the document exists (it arrives as an
    ``open`` record) or partway (as an ``export`` page), then streamed
    the rest of the hot spot."""
    leader = DocumentStore(max_code_length=TIGHT, durability="log",
                           wal_dir=str(tmp_path / "leader"))
    replica = ReplicaStore(max_code_length=LOOSE)
    try:
        leader.enable_replication()
        surface = StoreDispatcher(leader)
        if bootstrap_after:
            leader.open("d", HOT)
            _hot_spot(leader, bootstrap_after)
        page = surface.export(format="state")
        replica.bootstrap(page["docs"], page["seq"],
                          stream=page["stream"])
        token = page["token"]
        if not bootstrap_after:
            leader.open("d", HOT)
        _hot_spot(leader, INSERTS - bootstrap_after)
        page = surface.subscribe(from_token=token, decode=False)
        replica.apply_records(page)
        assert replica.text("d") == leader.text("d")
        assert _labels(replica) == _labels(leader)
    finally:
        replica.close()
        leader.close()


def test_a_payload_without_a_budget_restores_under_the_hosts(leader):
    store, __, __ = leader
    payload = document_payload(store._entries["d"].published)
    assert payload["budget"] == TIGHT
    del payload["budget"]
    assert restore_document(payload, LOOSE).budget == LOOSE


def _tight_log(wal_dir, durability):
    """Open ``d`` under the tight budget on ``wal_dir`` and write the
    hot spot; returns its labels."""
    with DocumentStore(max_code_length=TIGHT,
                       durability=durability, wal_dir=wal_dir) as store:
        store.open("d", HOT)
        _hot_spot(store)
        return _labels(store)


def _loose(wal_dir, durability):
    return DocumentStore(max_code_length=LOOSE,
                         durability=durability, wal_dir=wal_dir)


def test_a_snapshot_carries_the_budget(tmp_path):
    wal_dir = str(tmp_path / "wal")
    written = _tight_log(wal_dir, "log+snapshot:1")
    with _loose(wal_dir, "log+snapshot:1") as recovered:
        assert recovered.recovery.snapshot_generation is not None
        assert _labels(recovered) == written
        assert recovered._entries["d"].published.budget == TIGHT


@pytest.mark.parametrize("durability", ["log", "log+snapshot:1"])
def test_writes_after_a_restart_relabel_under_the_logged_budget(
        tmp_path, durability):
    """A host under another budget goes on relabelling the document
    after the same batches as one that never restarted, and logs (or
    snapshots) the budget forward for the next restart."""
    with DocumentStore(max_code_length=TIGHT) as reference:
        reference.open("d", HOT)
        _hot_spot(reference, 2 * INSERTS)
        expected = _labels(reference)
    wal_dir = str(tmp_path / "wal")
    _tight_log(wal_dir, durability)
    with _loose(wal_dir, durability) as resumed:
        _hot_spot(resumed)
        assert _labels(resumed) == expected
    with _loose(wal_dir, durability) as again:
        assert _labels(again) == expected
        assert again._entries["d"].published.budget == TIGHT


def test_a_document_opened_after_a_restart_takes_the_hosts_budget(
        tmp_path):
    wal_dir = str(tmp_path / "wal")
    _tight_log(wal_dir, "log")
    with _loose(wal_dir, "log") as host:
        host.open("e", HOT)
        _hot_spot(host, doc_id="e")
        assert host._entries["d"].published.budget == TIGHT
        assert host._entries["e"].published.budget == LOOSE
        assert host._entries["e"].published.full_relabels == 0


#: what the hot spot below leaves — the published version's tree with
#: ids, counters and label digits — as a working copy that rescaled its
#: codes before each full relabel left it too
PAST_THE_BUDGET = (
    "29e4ec32d3f19699efadaafa785d4ba343c613d7186f6aa1b7450ca3a18b5b7a")

#: the write-ahead log's bytes after the same hot spot: its ``open``
#: record carries the document in the id-table payload form, and each
#: ``batch`` record the reduced batch that took effect, without labels
PAST_THE_BUDGET_LOG = (
    "a6e65020dd12384edb53c806fb0679e14caf33a4aab56616348f24b90a42ca4a")


def test_a_flush_past_the_budget_widens_nothing(tmp_path, monkeypatch):
    """A batch whose fresh codes break the budget is followed by a full
    relabel, so the working copy installs none of them and never widens
    its columns for codes the relabel replaces: past a 64-digit budget,
    twice, ``_widen`` runs 0 times, and the version and its digits are
    the same bytes as when it ran. The log is pinned apart, so a change
    of the payload form moves that pin alone."""
    widened = []
    widen = ContainmentLabeling._widen

    def counting(labeling, width):
        widened.append(width)
        return widen(labeling, width)

    monkeypatch.setattr(ContainmentLabeling, "_widen", counting)
    wal_dir = str(tmp_path / "wal")
    with DocumentStore(durability="log",
                       wal_dir=wal_dir) as store:
        store.open("d", HOT)
        hot = store.document("d").root.children[-1].node_id
        relabels = []
        for __ in range(80):
            store.submit("d", PUL([InsertBefore(hot,
                                                [Node.element("x")])]))
            relabels.append(store.flush("d").relabel)
        version = store._entries["d"].published
        digest = hashlib.sha256()
        digest.update(tree_to_xml(version.document.root).encode())
        digest.update(repr([version.version,
                            version.labeling.max_code_length,
                            version.full_relabels]).encode())
        for node in version.document.nodes():
            digest.update(repr(
                version.labeling.digits(node.node_id)).encode())
    log = hashlib.sha256()
    for name in sorted(os.listdir(wal_dir)):
        with open(os.path.join(wal_dir, name), "rb") as handle:
            log.update(name.encode())
            log.update(handle.read())
    assert relabels.count("full") == 2
    assert widened == []
    assert digest.hexdigest() == PAST_THE_BUDGET
    assert log.hexdigest() == PAST_THE_BUDGET_LOG
