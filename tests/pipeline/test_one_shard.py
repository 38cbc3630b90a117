"""A one-shard batch is reduced once: no partition and no merge.

``shard_pul(pul, 1)`` is ``[pul]`` and the merge of one shard is that
shard, so a store whose batch forms one shard — every ``workers=1``
store, the default — runs ``reduce_deterministic`` on the batch and
nothing else: ``partition_targets`` and the merge's ``aggregate`` pass
are never called (patched here to raise), and the log holds that
reduction as it stands, a strict ``repC`` strict and the operations in
the reduction's order. A batch over several shards keeps both steps,
and the two shapes end at the same text, label digits and index.
"""

import pytest

import repro.pipeline.merge as merge_mod
import repro.pipeline.shard as shard_mod
from repro.apply.inmemory import apply_in_memory
from repro.cluster import ReplicaStore
from repro.cluster.tokens import encode_token
from repro.errors import ReproError
from repro.labeling import ContainmentLabeling
from repro.pipeline import merge_shards, shard_pul
from repro.pul.ops import (
    Delete,
    InsertIntoAsLast,
    Rename,
    ReplaceChildren,
)
from repro.pul.pul import PUL
from repro.pul.serialize import pul_from_xml
from repro.reduction import reduce_deterministic
from repro.store import DocumentStore, replay_oracle
from repro.workloads import (
    generate_client_batches,
    generate_pul,
    generate_sequential_puls,
    generate_xmark,
)
from repro.xdm import parse_document
from repro.xdm.node import Node
from repro.xdm.serializer import serialize

DOC = "<r>" + "".join(
    "<s{0}><c{0}>t</c{0}></s{0}>".format(i) for i in range(8)) + "</r>"


def _independent_ops(document):
    """Two operations on each of eight independent subtrees: as many
    components as subtrees, so a wider store shards the batch."""
    ops = []
    for index, subtree in enumerate(document.root.children):
        child = subtree.children[0]
        ops.append(Rename(child.node_id, "x{}".format(index)))
        if index % 2:
            ops.append(Delete(child.children[0].node_id))
        else:
            ops.append(InsertIntoAsLast(child.node_id,
                                        [Node.element("n")]))
    return ops


def _refused(name):
    def refuse(*args, **kwargs):
        raise AssertionError("{} called on a one-shard batch".format(name))
    return refuse


def _counted(function, calls):
    def count(*args, **kwargs):
        calls.append(function.__name__)
        return function(*args, **kwargs)
    return count


def _state(store, doc_id="d"):
    """Text, label digits of every node, and the index of the published
    version: what every host of the log must agree on."""
    version = store._entries[doc_id].published
    labeling = version.labeling
    digits = {node.node_id: labeling.digits(node.node_id)
              for node in version.document.nodes()}
    return serialize(version.document), digits, version.index


class TestBaseCases:
    def test_one_shard_is_the_pul_itself(self):
        document = parse_document(DOC)
        pul = PUL(_independent_ops(document))
        pul.attach_labels(ContainmentLabeling().build(document))
        [shard] = shard_pul(pul, 1)
        assert shard is pul
        reduced = reduce_deterministic(pul)
        assert merge_shards([reduced]) is reduced

    def test_dependent_shards_are_still_refused(self):
        """Two shards are merged through the aggregation engine, whose
        rules must find nothing to combine: two inserts into one node
        would cumulate, so the merge refuses them."""
        shards = [PUL([InsertIntoAsLast(1, [Node.element(name)])])
                  for name in ("a", "b")]
        with pytest.raises(ReproError, match="not independent"):
            merge_shards(shards)

    def test_zero_shards_still_refused(self):
        with pytest.raises(ReproError, match="num_shards must be >= 1"):
            shard_pul(PUL([]), 0)
        with pytest.raises(ReproError, match="cannot merge zero shards"):
            merge_shards([])


class TestCountedSteps:
    @pytest.mark.parametrize("options", (
        {}, {"workers": 1}, {"workers": 1, "backend": "thread"}),
        ids=("default", "workers=1", "workers=1-thread"))
    def test_a_one_worker_flush_neither_partitions_nor_aggregates(
            self, monkeypatch, options):
        monkeypatch.setattr(shard_mod, "partition_targets",
                            _refused("partition_targets"))
        monkeypatch.setattr(merge_mod, "aggregate", _refused("aggregate"))
        with DocumentStore(**options) as store:
            store.open("d", DOC)
            pul = PUL(_independent_ops(store.document("d")))
            store.submit("d", pul.copy())
            result = store.flush("d")
            assert result.shard_sizes == [len(pul)]
            labeled = pul.copy()
            labeled.attach_labels(ContainmentLabeling().build(
                parse_document(DOC)))
            assert store.text("d") == apply_in_memory(
                DOC, reduce_deterministic(labeled))

    def test_a_multi_shard_flush_partitions_and_merges(self, monkeypatch):
        calls = []
        monkeypatch.setattr(shard_mod, "partition_targets", _counted(
            shard_mod.partition_targets, calls))
        monkeypatch.setattr(merge_mod, "aggregate", _counted(
            merge_mod.aggregate, calls))
        with DocumentStore(workers=3, backend="serial") as store:
            store.open("d", DOC)
            store.submit("d", PUL(_independent_ops(store.document("d"))))
            result = store.flush("d")
        assert len(result.shard_sizes) == 3
        assert calls == ["partition_targets", "aggregate"]


class TestLoggedAsReduced:
    DOC = "<r><a><b/></a><c/></r>"

    def _batch(self, document):
        a, c = (node for node in document.root.children)
        return PUL([ReplaceChildren(a.node_id, [Node.text("x")]),
                    Rename(c.node_id, "d")])

    def test_a_strict_repc_is_logged_strict_and_in_reduction_order(
            self, tmp_path):
        wal_dir = str(tmp_path / "wal")
        with DocumentStore(workers=1, durability="log",
                           wal_dir=wal_dir) as store:
            source = store.enable_replication()
            seq0 = source.next_seq
            store.open("d", self.DOC)
            batch = self._batch(store.document("d"))
            batch.attach_labels(store._entries["d"].published.labeling)
            expected = reduce_deterministic(batch)
            store.submit("d", self._batch(store.document("d")))
            store.flush("d")
            leader = _state(store)
            page = source.read(from_token=encode_token(
                source.stream_id, seq0), decode=False)
            [record] = [event["record"] for event in page["events"]
                        if event["record"]["kind"] == "batch"]
            logged = pul_from_xml(record["pul"])
            # the merge of one shard would have rewritten the repC as
            # strict="false" and put the stage-1 rename first
            assert 'strict="false"' not in record["pul"]
            assert [op.op_name for op in logged] == \
                ["replaceChildren", "rename"]
            assert list(logged) == list(expected)
            assert all(op.strict for op in logged
                       if op.op_name == "replaceChildren")
            with ReplicaStore() as replica:
                replica.bootstrap([], seq0, stream=source.stream_id)
                replica.apply_records(page)
                assert _state(replica) == leader
        with DocumentStore(durability="log", wal_dir=wal_dir) as restarted:
            assert _state(restarted) == leader
        assert replay_oracle(wal_dir)["d"] == (leader[0], 1)
        assert leader[0] == "<r><a>x</a><d/></r>"


def _chain(family, seed):
    """The document and batches of submissions one workload generator
    makes for it: concurrent clients' rounds, one producer's sequential
    chain, or a lone large PUL."""
    document = generate_xmark(scale=0.02, seed=seed)
    if family == "clients":
        batches, __ = generate_client_batches(
            document, clients=3, rounds=3, ops_per_round=10, seed=seed)
    elif family == "sequential":
        puls, __ = generate_sequential_puls(document, 3, 8, seed=seed)
        batches = [[("p", pul) for pul in puls]]
    else:
        labeling = ContainmentLabeling().build(document)
        pul = generate_pul(document, 60, seed=seed, labeling=labeling,
                           min_depth=3)
        batches = [[("l", pul)]]
    return serialize(document), batches


@pytest.mark.parametrize("family", ("clients", "sequential", "lone"))
@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_one_worker_and_three_shards_end_alike(family, seed):
    """A ``workers=1`` store reduces every batch once; a ``workers=3``
    serial store shards, reduces and merges them. Batch by batch, both
    stand at the same text, label digits and index."""
    # each store gets its own draw: a copy would drop the ids a
    # sequential chain's later PULs target
    text, batches = _chain(family, seed)
    __, twins = _chain(family, seed)
    with DocumentStore(workers=1) as one, \
            DocumentStore(workers=3, backend="serial") as three:
        for store in (one, three):
            store.open("d", text)
        for submissions, twin in zip(batches, twins):
            for store, drawn in ((one, submissions), (three, twin)):
                for client, pul in drawn:
                    store.submit("d", pul, client=client)
            assert len(one.flush("d").shard_sizes) == 1
            three.flush("d")
            assert _state(one) == _state(three)
