"""The paper's distributed setting, on the store.

Producers ship PULs; one executor per document reasons on them and
makes them effective. Here the executor is a :class:`DocumentStore`
and a producer is a ``client=`` name:

* a *disconnected* producer restores an ``export_state`` payload (ids
  and labels included), keeps editing its own copy with
  ``apply_pul(preserve_ids=True)`` — new nodes get ids from the
  producer's own :class:`IdAllocator` band, so a later edit can target
  them — and on reconnection ships its session: as the chain of its
  PULs, which coalescing aggregates (the producer's ids survive), or as
  their aggregate, submitted once (the same document; the store gives
  the nodes a lone submission inserts ids of its own);
* *parallel* producers meet in coalescing: their edits merge, or
  conflict and are refused (``on_conflict="error"``) or reconciled
  under their :class:`ProducerPolicy` (``on_conflict="reconcile"``).
"""

import pytest

from repro.aggregation import aggregate
from repro.errors import DocumentError, MergeError, ReconciliationError
from repro.integration import ProducerPolicy, integrate, reconcile
from repro.labeling import ContainmentLabeling
from repro.pul.semantics import apply_pul
from repro.pul.serialize import tree_to_xml
from repro.reasoning import DocumentOracle
from repro.reduction import reduce_deterministic
from repro.store import DocumentStore
from repro.store.durability import restore_document
from repro.workloads import generate_sequential_puls, generate_xmark
from repro.workloads.conflictgen import generate_conflicting_puls
from repro.xdm.document import IdAllocator
from repro.xdm.serializer import serialize
from repro.xquery import compile_pul

ARTICLE = ("<article><title>T</title><authors><author>A</author>"
           "</authors><status>draft</status></article>")

SESSION = (
    "insert node <sec><p>one</p></sec> as last into /article",
    # targets the <sec> the first edit inserted
    "insert node <p>two</p> as last into /article/sec",
    'replace value of node /article/sec/p[1]/text() with "ONE", '
    'rename node /article/title as headline',
)

BAND = 10 ** 9


def _store(tmp_path=None, **kwargs):
    durable = {} if tmp_path is None else dict(
        durability="log", wal_dir=str(tmp_path / "wal"))
    return DocumentStore(workers=1, backend="serial", **durable, **kwargs)


def _checkout(store, doc_id):
    """What a producer receives: the document's state-form payload,
    restored to ``(document, labeling)`` with ids and labels intact."""
    payload = store.export_state(doc_ids=[doc_id])["docs"][0]
    restored = restore_document(payload)
    return restored.document, restored.labeling


def _edit(document, labeling, query, client, ids):
    """One disconnected edit: produce the PUL, give its new nodes ids
    from the producer's band, apply it to the local copy."""
    pul = compile_pul(query, document, labeling=labeling, origin=client)
    for op in pul:
        for tree in op.trees:
            for node in tree.iter_subtree():
                if node.node_id is None:
                    node.node_id = ids.allocate()
    apply_pul(document, pul, preserve_ids=True)
    labeling.sync(document)
    return pul


def _session(store, doc_id, client, queries, band):
    document, labeling = _checkout(store, doc_id)
    ids = IdAllocator(start=band)
    puls = [_edit(document, labeling, query, client, ids)
            for query in queries]
    return document, puls


def _with_ids(store, doc_id):
    return tree_to_xml(store.document(doc_id).root)


#: why a lone submission's new nodes do not keep the producer's ids:
#: coalescing copies a one-PUL chain without them (a chain of two or
#: more is aggregated, which keeps them), so the store allocates its own
LONE_SUBMISSION = ("a lone submission's inserted nodes are re-identified "
                   "by the store")


class TestDisconnectedSession:
    def test_a_shipped_chain_lands_with_the_producer_ids(self, tmp_path):
        with _store(tmp_path) as store:
            store.open("a", ARTICLE)
            before = _checkout(store, "a")[0]
            local, session = _session(store, "a", "laptop", SESSION, BAND)
            for pul in session:
                store.submit("a", pul, client="laptop")
            result = store.flush("a")
            assert (result.version, result.clients) == (1, 1)
            # the three PULs in sequence, from the state checked out —
            # and their aggregate, which is what the store applied
            aggregated = before.copy()
            apply_pul(aggregated, aggregate(session), preserve_ids=True)
            for pul in session:
                apply_pul(before, pul, preserve_ids=True)
            expected = tree_to_xml(before.root)
            assert tree_to_xml(local.root) == expected
            assert tree_to_xml(aggregated.root) == expected
            assert _with_ids(store, "a") == expected
            assert 'repro:id="{}"'.format(BAND) in expected
        with _store(tmp_path) as restarted:
            assert _with_ids(restarted, "a") == expected
            # the store keeps allocating above the producer's ids
            restarted.submit_xquery(
                "a", "insert node <q/> as first into /article",
                client="server-side")
            restarted.flush("a")
            q = next(node for node in restarted.document("a").nodes()
                     if node.is_element and node.name == "q")
            assert q.node_id > BAND

    def test_the_aggregate_submitted_once_lands_as_the_same_document(
            self, tmp_path):
        with _store(tmp_path) as store:
            store.open("a", ARTICLE)
            local, session = _session(store, "a", "laptop", SESSION, BAND)
            store.submit("a", aggregate(session), client="laptop")
            assert store.flush("a").version == 1
            assert store.text("a") == serialize(local)
        with _store(tmp_path) as restarted:
            assert restarted.text("a") == serialize(local)

    @pytest.mark.xfail(strict=True, reason=LONE_SUBMISSION)
    def test_the_aggregate_submitted_once_keeps_the_producer_ids(self):
        with _store() as store:
            store.open("a", ARTICLE)
            local, session = _session(store, "a", "laptop", SESSION, BAND)
            store.submit("a", aggregate(session), client="laptop")
            store.flush("a")
            assert _with_ids(store, "a") == tree_to_xml(local.root)

    def test_disjoint_bands_merge_and_a_shared_band_is_refused(self):
        def session(name):
            return ("insert node <{}/> as last into /article".format(name),
                    "insert node <y/> into /article/{}".format(name))

        with _store() as store:
            store.open("a", ARTICLE)
            for client, band in (("laptop", BAND), ("phone", 2 * BAND)):
                for pul in _session(store, "a", client, session("x"),
                                    band)[1]:
                    store.submit("a", pul, client=client)
            assert store.flush("a").clients == 2
            text = _with_ids(store, "a")
            assert 'repro:id="{}"'.format(BAND) in text
            assert 'repro:id="{}"'.format(2 * BAND) in text
            # two producers drawing from one band mint the same ids: the
            # batch cannot be applied, changes nothing and keeps its queue
            for client in ("laptop", "phone"):
                for pul in _session(store, "a", client, session("z"),
                                    3 * BAND)[1]:
                    store.submit("a", pul, client=client)
            with pytest.raises(DocumentError):
                store.flush("a")
            assert _with_ids(store, "a") == text
            assert store.stats("a")["pending"] == 4


class TestGeneratedSessions:
    """Disconnected sessions drawn by ``generate_sequential_puls``:
    later PULs edit nodes earlier ones inserted, under the ids the
    producer stamped on them."""

    @staticmethod
    def _session(seed):
        document = generate_xmark(scale=0.02, seed=seed)
        puls, final = generate_sequential_puls(
            document, 4, 30, new_node_ratio=0.5, seed=seed,
            origin="laptop")
        return document, puls, final

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_chain_lands_where_the_producer_stands(self, tmp_path,
                                                       seed):
        document, puls, final = self._session(seed)
        with _store(tmp_path) as store:
            store.open("a", serialize(document))
            for pul in puls:
                store.submit("a", pul, client="laptop")
            store.flush("a")
            assert _with_ids(store, "a") == tree_to_xml(final.root)
        with _store(tmp_path) as restarted:
            assert _with_ids(restarted, "a") == tree_to_xml(final.root)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_aggregate_lands_as_the_same_document(self, seed):
        document, puls, final = self._session(seed)
        with _store() as store:
            store.open("a", serialize(document))
            store.submit("a", aggregate(puls), client="laptop")
            store.flush("a")
            assert store.text("a") == serialize(final)

    @pytest.mark.xfail(strict=True, reason=LONE_SUBMISSION)
    def test_a_flush_per_pul_follows_the_producer_ids(self):
        """One flush per PUL: each PUL is reduced on its own, so the
        producer ships them reduced, as its copy applied them; PUL k
        then targets nodes by the ids PULs < k gave them."""
        document, puls, __ = self._session(1)
        local = document.copy()
        with _store() as store:
            store.open("a", serialize(document))
            for pul in puls:
                reduced = reduce_deterministic(pul, DocumentOracle(local))
                apply_pul(local, reduced, preserve_ids=True)
                store.submit("a", reduced, client="laptop")
                store.flush("a")
            assert _with_ids(store, "a") == tree_to_xml(local.root)


PARALLEL = {
    "giovanna": "insert node <author>G</author> after "
                "/article/authors/author[1], "
                'replace value of node /article/status/text() with "sub"',
    "marco": "insert node <author>M</author> after "
             "/article/authors/author[1], "
             'replace value of node /article/status/text() with "cr"',
    "federico": "rename node /article/title as heading",
}

#: ``(on_conflict, policies from the producers' names)`` per case
MIXES = {
    "error": ("error", lambda names: {}),
    "no-policy": ("reconcile", lambda names: {}),
    "first-keeps-data": ("reconcile", lambda names: {
        names[0]: ProducerPolicy(preserve_inserted_data=True)}),
    "first-order-and-data": ("reconcile", lambda names: {
        names[0]: ProducerPolicy(preserve_insertion_order=True,
                                 preserve_inserted_data=True),
        names[-1]: ProducerPolicy(preserve_inserted_data=True)}),
    "second-keeps-data": ("reconcile", lambda names: {
        names[1]: ProducerPolicy(preserve_inserted_data=True)}),
    "first-strict": ("reconcile", lambda names: {
        names[0]: ProducerPolicy.strict()}),
    "all-keep-data": ("reconcile", lambda names: {
        name: ProducerPolicy(preserve_inserted_data=True,
                             preserve_removed_data=True)
        for name in names}),
    "all-demand-order": ("reconcile", lambda names: {
        name: ProducerPolicy(preserve_insertion_order=True)
        for name in names}),
}


def _integration_oracle(document, puls, on_conflict, policies):
    """What the integration layer makes of parallel ``puls``: the
    document's text with ids, or the error class a store refuses the
    batch with."""
    if on_conflict == "error":
        merged = integrate(puls)
        if merged.conflicts:
            return MergeError
        combined = merged.pul
    else:
        try:
            combined = reconcile(puls, policies)
        except ReconciliationError:
            return ReconciliationError
    result = document.copy()
    apply_pul(result, reduce_deterministic(combined), preserve_ids=True)
    return tree_to_xml(result.root)


def _answers_like_the_integration_layer(document, puls, mix):
    """Each PUL submitted under its origin as client name: the flush
    lands where the oracle does, or is refused the same way with
    nothing changed and the queue kept."""
    on_conflict, make = MIXES[mix]
    policies = make([pul.origin for pul in puls])
    expected = _integration_oracle(document, puls, on_conflict, policies)
    text = serialize(document)
    with _store(on_conflict=on_conflict, policies=policies) as store:
        store.open("a", text)
        for pul in puls:
            store.submit("a", pul, client=pul.origin)
        if isinstance(expected, str):
            assert store.flush("a").clients == len(puls)
            assert _with_ids(store, "a") == expected
        else:
            with pytest.raises(expected):
                store.flush("a")
            assert store.text("a") == text
            assert store.version("a") == 0
            assert store.stats("a")["pending"] == len(puls)


class TestParallelProducers:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_conflicting_edits(self, mix):
        """Three collaborators edit one article from one checkout;
        producing leaves each checkout as it was."""
        with _store() as store:
            store.open("a", ARTICLE)
            payload = store.export_state()["docs"][0]
        document = restore_document(payload).document
        puls = []
        for name, query in PARALLEL.items():
            checkout = restore_document(payload)
            before = tree_to_xml(checkout.document.root)
            puls.append(compile_pul(query, checkout.document,
                                    labeling=checkout.labeling,
                                    origin=name))
            assert tree_to_xml(checkout.document.root) == before
        _answers_like_the_integration_layer(document, puls, mix)

    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_conflicts(self, seed, mix):
        """PULs carrying planted conflicts of every type
        (``generate_conflicting_puls``)."""
        document = generate_xmark(scale=0.02, seed=seed)
        puls, planted = generate_conflicting_puls(
            document, pul_count=4, ops_per_pul=30, seed=seed,
            labeling=ContainmentLabeling().build(document))
        assert planted
        for index, pul in enumerate(puls):
            pul.origin = "p{}".format(index)
        _answers_like_the_integration_layer(document, puls, mix)


