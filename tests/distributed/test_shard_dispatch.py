"""Distributed layer: message round-trips, shard dispatch ordering, and
worker failure mid-batch."""

import pytest

import repro.pipeline.parallel as parallel_mod
from repro.distributed.executor import Executor
from repro.distributed.messages import (
    DocumentSnapshot,
    PULMessage,
    ShardEnvelope,
)
from repro.distributed.network import SimulatedNetwork
from repro.distributed.producer import Producer
from repro.pul.ops import InsertIntoAsLast, Rename, ReplaceValue
from repro.pul.pul import PUL
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.xdm.node import Node
from repro.xdm.serializer import serialize

DOC = ("<bib><paper><title>T1</title><authors><author>A</author>"
       "</authors></paper><paper><title>T2</title></paper>"
       "<note>n</note></bib>")


@pytest.fixture
def executor():
    return Executor(DOC)


@pytest.fixture
def pul(executor):
    """Operations on four structurally independent targets (the two
    titles, the author text, the note), so sharding yields > 1 shard."""
    elements = {}
    texts = {}
    for node in executor.document.nodes():
        if node.is_element:
            elements.setdefault(node.name, []).append(node)
        elif node.is_text:
            texts.setdefault(node.value, node)
    title1, title2 = elements["title"]
    ops = [
        Rename(title1.node_id, "headline"),
        InsertIntoAsLast(title2.node_id, [Node.text("!")]),
        ReplaceValue(texts["A"].node_id, "Anna"),
        ReplaceValue(texts["n"].node_id, "updated"),
    ]
    pul = PUL(ops, origin="alice")
    pul.attach_labels(executor.labeling)
    return pul


class TestMessageRoundTrips:
    def test_pul_message_producer_to_executor(self, executor):
        executor.register_producer("alice")
        producer = Producer("alice")
        producer.checkout(executor.snapshot_for("alice"))
        produced = producer.produce("delete nodes //author")
        message = producer.message_for(produced)
        received = executor.receive(message)
        assert received == produced
        assert received.origin == "alice"
        assert set(received.labels) == set(produced.labels)

    def test_snapshot_round_trip(self, executor):
        executor.register_producer("bob")
        snapshot = executor.snapshot_for("bob")
        producer = Producer("bob")
        document = producer.checkout(snapshot)
        assert serialize(document) == serialize(executor.document)
        assert snapshot.size_bytes() == \
            len(snapshot.text.encode("utf-8"))

    def test_shard_envelope_round_trip(self, pul):
        envelope = ShardEnvelope(pul_to_xml(pul), origin="alice",
                                 shard_index=2, shard_count=4,
                                 base_version=7)
        decoded = pul_from_xml(envelope.payload)
        assert decoded == pul
        assert set(decoded.labels) == set(pul.labels)
        assert envelope.size_bytes() == \
            len(envelope.payload.encode("utf-8"))
        assert "2/4" in repr(envelope)

    def test_doc_id_addresses_a_resident_document(self):
        message = PULMessage("<pul/>", origin="alice", doc_id="d1")
        envelope = ShardEnvelope("<pul/>", origin="alice", shard_index=0,
                                 shard_count=1, doc_id="d1")
        assert message.doc_id == envelope.doc_id == "d1"
        assert "doc='d1'" in repr(message)
        assert "doc='d1'" in repr(envelope)
        assert "doc=" not in repr(PULMessage("<pul/>", origin="alice"))

    def test_shard_envelope_rejects_bad_index(self):
        with pytest.raises(ValueError):
            ShardEnvelope("<pul/>", origin=None, shard_index=4,
                          shard_count=4)


class TestShardDispatch:
    def test_envelopes_in_shard_order(self, executor, pul):
        envelopes = executor.dispatch_shards(pul, 4)
        assert [e.shard_index for e in envelopes] == \
            list(range(len(envelopes)))
        assert all(e.shard_count == len(envelopes) for e in envelopes)
        assert all(e.base_version == executor.version for e in envelopes)

    def test_dispatch_covers_the_whole_pul(self, executor, pul):
        envelopes = executor.dispatch_shards(pul, 4)
        shipped = sorted(
            op.describe() for envelope in envelopes
            for op in pul_from_xml(envelope.payload))
        assert shipped == sorted(op.describe() for op in pul)

    def test_network_records_one_transfer_per_shard_in_order(
            self, executor, pul):
        network = SimulatedNetwork()
        envelopes = executor.dispatch_shards(pul, 4, network=network)
        shard_log = [r for r in network.log if r.kind == "shard"]
        assert len(shard_log) == len(envelopes)
        assert [r.receiver for r in shard_log] == \
            ["reducer-{}".format(i) for i in range(len(envelopes))]
        assert network.bytes_transferred == \
            sum(e.size_bytes() for e in envelopes)

    def test_dispatch_does_not_mutate_the_pul(self, executor, pul):
        labels_before = dict(pul.labels)
        executor.dispatch_shards(pul, 4)
        assert pul.labels == labels_before


class TestExecutePipeline:
    def test_equivalent_to_sequential_executor(self, pul):
        parallel_exec = Executor(DOC)
        sequential_exec = Executor(DOC)
        version, outcome = parallel_exec.execute_pipeline(
            pul.copy(), workers=4, backend="thread")
        sequential_exec.execute(pul.copy(), reduce_first=True)
        assert version == 1
        assert parallel_exec.text() == sequential_exec.text()
        assert outcome.failures == []

    def test_accepts_pul_message(self, executor, pul):
        reference = Executor(DOC)
        reference.execute(pul.copy(), reduce_first=True)
        message = PULMessage(pul_to_xml(pul), origin="alice")
        version, __ = executor.execute_pipeline(message, workers=2,
                                                backend="serial")
        assert version == 1
        assert executor.text() == reference.text()

    def test_worker_failure_mid_batch_still_converges(
            self, monkeypatch, executor, pul):
        reference = Executor(DOC)
        reference.execute(pul.copy(), reduce_first=True)
        real = parallel_mod._reduce_shard
        crashed = []

        def flaky(shard, deterministic):
            if not crashed:
                crashed.append(True)
                raise RuntimeError("worker crashed mid-batch")
            return real(shard, deterministic)

        monkeypatch.setattr(parallel_mod, "_reduce_shard", flaky)
        version, outcome = executor.execute_pipeline(
            pul.copy(), workers=4, backend="thread")
        assert crashed
        assert len(outcome.failures) == 1
        assert version == 1
        assert executor.text() == reference.text()
