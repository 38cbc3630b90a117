"""Label structure against the tree alone, and the pinned label digits.

:func:`tree_structure` works out every node's level, parent id and
left/right sibling ids by walking the tree, without a label in sight.
Every path that makes labels — a bulk :meth:`build`, a whole-tree
:meth:`sync`, the per-site ``assign_runs`` of the in-place applier, the
full relabel a flush falls back on when codes outgrow the budget, a
restart's restore and a replica's replay — must leave exactly one
label per live node, over the document it labels, and each label made
to travel (``exchange_label``) must have that structure. A node's
parent has one source, its document's parent map, which must give
every node the parent its tree and its label give it.

The digit pin holds the codes themselves: a hash over every exchange
label's ``to_string()`` after :meth:`build` of fixed XMark documents,
one per encoder. Label digits travel in every payload, WAL record and replica
bootstrap, so a change of the pinned value is a change of the durable
format, never a refactoring's side effect.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apply.inplace import apply_batch_in_place, classify, replay_batch
from repro.cluster import ReplicaStore
from repro.cluster.tokens import decode_token
from repro.errors import NotApplicableError
from repro.labeling import CDBSEncoder, CDQSEncoder, ContainmentLabeling
from repro.pul.semantics import apply_pul
from repro.reduction import reduce_deterministic
from repro.store import DocumentStore
from repro.workloads import generate_pul, generate_xmark
from repro.xdm.document import Document
from repro.xdm.parser import parse_document
from repro.xdm.serializer import serialize

from tests.strategies import applicable_puls, documents

ENCODERS = [CDBSEncoder, CDQSEncoder]


def tree_structure(document):
    """``{id: (node type, level, parent id, left sibling id, right
    sibling id)}`` of every node of ``document``, from the tree alone
    (attributes have no siblings)."""
    structure = {}
    stack = [(document.root, 0, None, None, None)]
    while stack:
        node, level, parent_id, left, right = stack.pop()
        structure[node.node_id] = (node.node_type, level, parent_id, left,
                                   right)
        for attr in node.attributes:
            structure[attr.node_id] = (attr.node_type, level + 1,
                                       node.node_id, None, None)
        ids = [child.node_id for child in node.children]
        for index, child in enumerate(node.children):
            stack.append((child, level + 1, node.node_id,
                          ids[index - 1] if index else None,
                          ids[index + 1] if index + 1 < len(ids) else None))
    return structure


def exchanged_structure(labeling, node_id):
    """The structure fields of ``node_id``'s exchange label."""
    label = labeling.exchange_label(node_id)
    assert (label.start, label.end) == labeling.digits(node_id)
    return (label.node_type, label.level, label.parent_id,
            label.left_sibling_id, label.right_sibling_id)


def assert_structure(document, labeling):
    """One label per live node over ``document``, exchange labels
    with the structure the tree gives them, and the document's parent
    map and length agreeing with both."""
    structure = tree_structure(document)
    assert labeling.document is document
    assert labeling.as_mapping().keys() == structure.keys()
    assert {node_id: exchanged_structure(labeling, node_id)
            for node_id in structure} == structure
    assert {node_id: document.parent_id(node_id) for node_id in structure} \
        == {node_id: entry[2] for node_id, entry in structure.items()}
    assert len(document) == len(structure)


@settings(max_examples=60, deadline=None)
@given(documents(max_depth=4, max_children=4), st.sampled_from(ENCODERS))
def test_build(document, encoder_cls):
    labeling = ContainmentLabeling(encoder=encoder_cls()).build(document)
    assert_structure(document, labeling)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(ENCODERS))
def test_sync(data, encoder_cls):
    """A whole-tree sync after batches applied to the tree alone."""
    document = data.draw(documents())
    labeling = ContainmentLabeling(encoder=encoder_cls()).build(document)
    for __ in range(data.draw(st.integers(1, 3), label="batches")):
        pul = data.draw(applicable_puls(document, max_ops=6))
        try:
            apply_pul(document, pul)
        except NotApplicableError:
            return
        labeling.sync(document)
        assert_structure(document, labeling)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(ENCODERS))
def test_assign_run(data, encoder_cls):
    """The in-place applier's per-site repair: ``assign_runs`` gives
    each run's nodes their codes, and their exchange labels the
    structure of the tree they were inserted into."""
    document = data.draw(documents())
    labeling = ContainmentLabeling(encoder=encoder_cls()).build(document)
    for __ in range(data.draw(st.integers(1, 3), label="batches")):
        pul = data.draw(applicable_puls(document, max_ops=6))
        pul.attach_labels(labeling)
        try:
            runs = replay_batch(document, labeling,
                                reduce_deterministic(pul))
        except NotApplicableError:
            return
        if runs is None:
            labeling.sync(document)
        else:
            structure = tree_structure(document)
            labeling.assign_runs((left, right, run)
                                 for left, right, __, run in runs)
            for __, __, __, run in runs:
                for tree in run:
                    for node in tree.iter_subtree():
                        assert exchanged_structure(
                            labeling, node.node_id) \
                            == structure[node.node_id]
        assert_structure(document, labeling)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_flushes_with_a_full_relabel(data):
    """A budget of one digit makes every flush relabel the whole
    document; the published labels have the tree's structure."""
    text = serialize(data.draw(documents()))
    with DocumentStore(max_code_length=1) as store:
        store.open("d", text)
        for __ in range(data.draw(st.integers(1, 3), label="batches")):
            store.submit("d", data.draw(
                applicable_puls(store.document("d"), max_ops=6)))
            try:
                result = store.flush("d")
            except NotApplicableError:
                return
            assert result.relabel == "full"
            assert_structure(store.document("d"), store.labeling("d"))


def test_a_full_relabel_flush_walks_no_copy_for_its_length(monkeypatch):
    """A full relabel sizes its codes by ``len`` of the path copy, which
    its id table counts as ids enter and leave: the flush lists no
    document's ids."""
    listed = []
    node_ids = Document.node_ids

    def counting(document):
        listed.append(document)
        return node_ids(document)

    monkeypatch.setattr(Document, "node_ids", counting)
    text = serialize(generate_xmark(scale=0.01, seed=5))
    with DocumentStore(max_code_length=1) as store:
        store.open("d", text)
        for seed in range(3):
            store.submit("d", generate_pul(store.document("d"), 8,
                                           seed=seed))
            assert store.flush("d").relabel == "full"
            assert_structure(store.document("d"), store.labeling("d"))
    assert listed == []


def _edit_session(store, doc_id, rounds):
    """Flush ``rounds`` generated batches — inserts, deletes and
    replacements — into the document ``doc_id``."""
    for round_index in range(rounds):
        store.submit(doc_id, generate_pul(store.document(doc_id), 12,
                                          seed=round_index))
        try:
            store.flush(doc_id)
        except NotApplicableError:
            store.discard_pending(doc_id)


def test_a_restart_and_a_replica_restore_the_structure(tmp_path):
    """A restart's restore and a replica's ``apply_records`` of the
    leader's stream rebuild labels and parent map with the tree's
    structure — also across full relabels (a two-digit budget)."""
    wal = str(tmp_path / "wal")
    text = serialize(generate_xmark(scale=0.01, seed=11))
    with DocumentStore(durability="log",
                       wal_dir=wal, max_code_length=2) as store:
        source = store.enable_replication()
        anchor = source.tail_token()
        store.open("d", text)
        _edit_session(store, "d", 4)
        assert store.stats("d")["full_relabels"] > 0
        assert_structure(store.document("d"), store.labeling("d"))
        expected = store.text("d")
        page = source.read(from_token=anchor, decode=False,
                           max_events=500)
    with DocumentStore(durability="log",
                       wal_dir=wal) as restarted:
        assert restarted.text("d") == expected
        assert_structure(restarted.document("d"),
                         restarted.labeling("d"))
    stream, seq = decode_token(anchor)
    with ReplicaStore(max_code_length=2) as replica:
        replica.bootstrap([], seq, stream=stream)
        replica.apply_records(page)
        assert replica.text("d") == expected
        assert_structure(replica.document("d"), replica.labeling("d"))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_an_abandoned_checkout_leaves_the_published_maps(data):
    """A checkout applied to and then abandoned leaves the published
    version's id index and parent map answering as before."""
    text = serialize(data.draw(documents()))
    with DocumentStore() as store:
        store.open("d", text)
        entry = store._entries["d"]
        published = entry.published
        document = published.document
        before = {node.node_id: (document.find(node.node_id),
                                 document.parent_id(node.node_id))
                  for node in document.nodes()}
        pul = data.draw(applicable_puls(document, max_ops=6))
        pul.attach_labels(published.labeling)
        reduced = reduce_deterministic(pul)
        footprint = classify(document, reduced)
        working, labeling = entry.checkout(footprint)
        try:
            apply_batch_in_place(working, labeling, reduced,
                                 footprint=footprint)
        except NotApplicableError:
            pass
        else:
            assert_structure(working, labeling)
        entry.abandon()
        assert entry.published is published
        assert {node.node_id: (document.find(node.node_id),
                               document.parent_id(node.node_id))
                for node in document.nodes()} == before
        assert_structure(document, published.labeling)


#: sha256 over the ``to_string()`` of every exchange label after
#: ``build``, in document order, of the XMark documents of scale 0.02
#: and seeds 3 and 7, each followed by its code-length watermark
DIGIT_PINS = {
    "CDBS": "6c6f62c409a219b475a17d0954ccd2c6"
            "995fade6ad94a86826331206b288bc92",
    "CDQS": "ffbbd535a2666bc6dfbf1172e9c9ed2a"
            "601c8942006d9bb640e0b03f202ac9e1",
}


@pytest.mark.parametrize("encoder_cls", ENCODERS, ids=["CDBS", "CDQS"])
def test_label_digits_are_pinned(encoder_cls):
    digest = hashlib.sha256()
    for seed in (3, 7):
        document = parse_document(
            serialize(generate_xmark(scale=0.02, seed=seed)))
        labeling = ContainmentLabeling(encoder=encoder_cls()).build(document)
        assert_structure(document, labeling)
        for node in document.nodes():
            digest.update(labeling.exchange_label(node.node_id)
                          .to_string().encode())
            digest.update(b"\n")
        digest.update(str(labeling.max_code_length).encode())
    assert digest.hexdigest() == DIGIT_PINS[encoder_cls.__name__[:4]]
