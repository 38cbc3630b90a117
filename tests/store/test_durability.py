"""The durable store: snapshot fidelity, recovery identity, compaction.

The central property is *state identity*: a recovered store must equal
the pre-crash store not just in document bytes but in node identifiers,
allocator position, version counters, and — because the replayed tail
runs through the incremental-relabel machinery — in every containment
label digit. The helpers below capture and compare that full state.
"""

import os
import threading

import pytest

from repro.errors import DurabilityError, ReproError
from repro.store import (
    DocumentStore,
    DurabilityPolicy,
    replay_oracle,
)
from repro.store.durability import (
    document_payload,
    load_durable_state,
    restore_document,
)
from repro.workloads import generate_client_batches, generate_xmark
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
    entry = store._require(doc_id)
    return {
        "text": store.text(doc_id),
        "ids": sorted(entry.document.node_ids()),
        "next_id": entry.document.allocator.next_value,
        "version": entry.version,
        "batches": entry.batches,
        "incremental_relabels": entry.incremental_relabels,
        "full_relabels": entry.full_relabels,
        "labels": {node_id: label.to_string()
                   for node_id, label
                   in entry.labeling.as_mapping().items()},
        "max_code_length": entry.labeling.max_code_length,
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


class TestSnapshotFidelity:
    def test_document_payload_round_trip(self, tmp_path):
        with _durable_store(tmp_path, "log") as store:
            entry = store.open("d", DOC)
            before = _full_state(store, "d")
            restored = restore_document(document_payload(entry))
        assert serialize(restored.document) == before["text"]
        assert sorted(restored.document.node_ids()) == before["ids"]
        assert restored.document.allocator.next_value == before["next_id"]
        assert {node_id: label.to_string()
                for node_id, label
                in restored.labeling.as_mapping().items()} \
            == before["labels"]
        assert restored.labeling.max_code_length \
            == before["max_code_length"]


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
            pinned = entry.pin()
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
            assert entry.pin() is pinned
            entry.unpin(pinned)
            entry.unpin(pinned)
            assert pinned.pins == 0
            assert store.stats("d") == dict(stats_before, pending=1)
            assert entry.logged_version == entry.version == 0
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
