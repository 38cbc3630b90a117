"""Differential fuzz harness for the stateful store.

Every stateful path is checked against a stateless sequential oracle:

* **reduction**: pulgen PULs reduced against the labels they carry (the
  executor's document-free mode) must equal the reduction against a live
  :class:`~repro.reasoning.oracle.DocumentOracle`;
* **store**: multi-round concurrent-client sessions through the resident
  :class:`DocumentStore` (incremental relabeling) must stay byte-identical
  to the :class:`StatelessBaseline` (full relabel → reduce → apply)
  after every flush — including sessions whose headroom budget
  forces full-relabel fallbacks mid-stream.
"""

import pytest

from repro.labeling import ContainmentLabeling
from repro.reasoning import DocumentOracle
from repro.reduction import reduce_deterministic
from repro.store import DocumentStore, StatelessBaseline
from repro.workloads import generate_client_batches, generate_pul, \
    generate_reducible_pul, generate_xmark
from repro.xdm.serializer import serialize

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="module")
def document():
    return generate_xmark(scale=0.02, seed=7)


@pytest.fixture(scope="module")
def labeling(document):
    return ContainmentLabeling().build(document)


class TestReductionOracleDifferential:
    """Label-carried structure vs live-document structure."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_label_and_document_oracles_agree(self, document, labeling,
                                              seed):
        pul = generate_pul(document, 40, seed=seed, labeling=labeling)
        by_labels = reduce_deterministic(pul)
        by_document = reduce_deterministic(pul,
                                           structure=DocumentOracle(
                                               document))
        assert by_labels == by_document

    @pytest.mark.parametrize("seed", SEEDS)
    def test_agreement_on_reducible_workloads(self, document, labeling,
                                              seed):
        pul = generate_reducible_pul(document, 40, hit_ratio=0.3,
                                     seed=seed, labeling=labeling)
        by_labels = reduce_deterministic(pul)
        by_document = reduce_deterministic(pul,
                                           structure=DocumentOracle(
                                               document))
        assert by_labels == by_document
        assert len(by_labels) < len(pul)  # the planted pairs collapsed


def _run_session(document, seed, clients=3, rounds=4, ops_per_round=12,
                 max_code_length=64, min_depth=0):
    """Drive one store-vs-baseline session; asserts byte identity after
    every flush and returns the store's final stats."""
    text = serialize(document)
    batches, expected = generate_client_batches(
        document, clients=clients, rounds=rounds,
        ops_per_round=ops_per_round, seed=seed, min_depth=min_depth)
    baseline = StatelessBaseline()
    with DocumentStore(max_code_length=max_code_length) as store:
        store.open("d", text)
        baseline.open("d", text)
        for submissions in batches:
            for client, pul in submissions:
                store.submit("d", pul.copy(), client=client)
                baseline.submit("d", pul.copy(), client=client)
            store.flush("d")
            baseline.flush("d")
            assert store.text("d") == baseline.text("d")
        assert store.text("d") == serialize(expected)
        return store.stats("d")


class TestStoreDifferential:
    """Resident-incremental relabel vs stateless full relabel."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sessions_byte_identical(self, document, seed):
        stats = _run_session(document, seed)
        assert stats["version"] == 4
        assert stats["full_relabels"] == 0  # headroom never exhausted

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_sessions_with_forced_full_relabels(self, document, seed):
        """A tight headroom budget forces the fallback mid-session; the
        relabeled store must keep producing identical bytes."""
        stats = _run_session(document, seed, rounds=6,
                             max_code_length=14)
        assert stats["full_relabels"] >= 1

    def test_seed_nine_session(self, document):
        _run_session(document, seed=9)

    def test_record_local_sessions(self, document):
        """The record-local min_depth workload shape."""
        stats = _run_session(document, seed=13, clients=4, rounds=3,
                             ops_per_round=20, min_depth=3)
        assert stats["batches"] == 3

    def test_single_client_session(self, document):
        _run_session(document, seed=17, clients=1)

    def test_sessions_survive_a_rejected_batch(self, document):
        """Store and oracle stay comparable across a failed flush: both
        reject the same conflicting batch, restore their queues, and —
        once the batch is withdrawn — keep producing identical bytes."""
        from repro.errors import MergeError
        from repro.pul.ops import ReplaceValue
        from repro.pul.pul import PUL

        text = serialize(document)
        victim = next(n.node_id for n in document.nodes() if n.is_text)
        baseline = StatelessBaseline()
        with DocumentStore() as store:
            store.open("d", text)
            baseline.open("d", text)
            for executor in (store, baseline):
                executor.submit("d", PUL([ReplaceValue(victim, "a")]),
                                client="alice")
                executor.submit("d", PUL([ReplaceValue(victim, "b")]),
                                client="bob")
                with pytest.raises(MergeError):
                    executor.flush("d")
                assert executor.text("d") == text
                assert executor.discard_pending("d") == 2
            batches, __ = generate_client_batches(
                document, clients=2, rounds=2, ops_per_round=8, seed=29)
            for submissions in batches:
                for client, pul in submissions:
                    store.submit("d", pul.copy(), client=client)
                    baseline.submit("d", pul.copy(), client=client)
                store.flush("d")
                baseline.flush("d")
                assert store.text("d") == baseline.text("d")

    def test_many_small_rounds(self):
        """A deep narrow document hammered on one hot spot — the shape
        that degrades code headroom fastest."""
        small = generate_xmark(scale=0.01, seed=3)
        stats = _run_session(small, seed=21, clients=2, rounds=8,
                             ops_per_round=6, max_code_length=16)
        assert stats["version"] == 8
