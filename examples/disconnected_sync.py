"""Disconnected execution: sequential PULs aggregated into one delta.

A producer checks a catalogue out of the store — the state-form export,
node identifiers and labels included — goes offline, and keeps editing
its local copy: each edit yields a PUL that it applies locally, and new
nodes get identifiers from the producer's own band, so later edits can
target them. On reconnection it submits the *aggregate* of the session
(Section 3.3) once instead of the PUL sequence: the store applies one
PUL, and the result is the document that replaying the whole sequence
gives. (The nodes a lone submission inserts get identifiers from the
store's own allocator; submitting the session's PULs as one chain
instead keeps the producer's, since coalescing aggregates the chain
itself.)

Run: ``python examples/disconnected_sync.py``
"""

from repro.aggregation import aggregate
from repro.pul.semantics import apply_pul
from repro.pul.serialize import pul_to_xml
from repro.store import DocumentStore
from repro.store.durability import restore_document
from repro.xdm.document import IdAllocator
from repro.xdm.serializer import serialize
from repro.xquery import compile_pul

CATALOGUE = """\
<catalogue>
  <section name="databases">
    <book><title>Principles of Data Integration</title></book>
  </section>
  <section name="systems"/>
</catalogue>"""

OFFLINE_EDITS = (
    # 1: add a book; its nodes get producer-assigned identifiers
    """insert node
         <book><title>XML Data Management</title></book>
       as last into /catalogue/section[@name = "databases"]""",
    # 2: edit *inside the book added by the previous PUL*
    """insert node <year>2011</year> as last into
         /catalogue/section[1]/book[2],
       replace value of node /catalogue/section[1]/book[2]/title/text()
         with "XML Data Management, 2nd ed." """,
    # 3: more edits, including on original nodes
    """rename node /catalogue/section[2] as area,
       insert node <book><title>Streaming XML</title></book>
         as first into /catalogue/section[1]""",
)

#: the first identifier of the laptop's band, far above any the store
#: allocates for this document
LAPTOP_IDS = 10 ** 9


def edit_offline(document, labeling, query, ids):
    """Produce the PUL of ``query``, give its new nodes identifiers from
    the producer's band, and apply it to the local copy."""
    pul = compile_pul(query, document, labeling=labeling, origin="laptop")
    for op in pul:
        for tree in op.trees:
            for node in tree.iter_subtree():
                if node.node_id is None:
                    node.node_id = ids.allocate()
    apply_pul(document, pul, preserve_ids=True)
    labeling.sync(document)
    return pul


def main():
    with DocumentStore(workers=1, backend="serial") as store:
        store.open("catalogue", CATALOGUE)
        payload = store.export_state(doc_ids=["catalogue"])["docs"][0]
        checkout = restore_document(payload)
        local, labeling = checkout.document, checkout.labeling
        ids = IdAllocator(start=LAPTOP_IDS)
        session = []
        for query in OFFLINE_EDITS:
            session.append(edit_offline(local, labeling, query, ids))
            print("offline edit -> PUL with {} ops".format(
                len(session[-1])))

        # option A would ship every PUL; option B ships their aggregate
        # (Definition 13)
        naive_bytes = sum(len(pul_to_xml(pul).encode()) for pul in session)
        delta = aggregate(session)
        print("\nsession of {} PULs aggregated into one delta of {} ops"
              .format(len(session), len(delta)))
        print("bytes shipped: {} (vs {} for the raw sequence)".format(
            len(pul_to_xml(delta).encode()), naive_bytes))

        store.submit("catalogue", delta, client="laptop")
        result = store.flush("catalogue")
        print("\nstore document after one batch (version {}):\n".format(
            result.version))
        print(store.text("catalogue"))

        # the local copy and the authoritative copy converged
        assert store.text("catalogue") == serialize(local)
        print("\nlocal and authoritative copies converged.")


if __name__ == "__main__":
    main()
