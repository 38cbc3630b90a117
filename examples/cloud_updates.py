"""Cloud scenario: update requests arrive over the network and are batched.

A client sends a chain of update requests against an XMark auction site
to the store that holds the authoritative copy. Each request is a PUL
in the exchange format; its new nodes carry the client's identifiers,
so later requests can target them. The example contrasts the two
execution strategies the paper evaluates (Figure 6d): one streamed pass
over the document per PUL, versus the store's way — the client's chain
submitted as it arrives and flushed once, coalescing aggregating it
into a single PUL first. Both must produce the same bytes, node
identifiers included. It also reports what shipping PULs instead of
the document costs.

Run: ``python examples/cloud_updates.py``
"""

import time

from repro.apply.events import document_events, events_to_document
from repro.apply.streaming import apply_streaming
from repro.pul.serialize import pul_from_xml, pul_to_xml, tree_to_xml
from repro.store import DocumentStore
from repro.workloads import generate_sequential_puls, generate_xmark
from repro.xdm.serializer import serialize


def main():
    document = generate_xmark(scale=0.1, seed=42)
    text = serialize(document)
    print("authoritative document: {:.0f} KB, {} nodes".format(
        len(text) / 1e3, len(document)))

    # the client's chain: later requests edit nodes earlier ones inserted
    puls, expected = generate_sequential_puls(
        document, 8, 100, new_node_ratio=0.4, seed=7, origin="cloud")
    wires = [pul_to_xml(pul) for pul in puls]
    print("{} PULs received, {} bytes in total; shipping the document "
          "instead costs {} bytes per trip".format(
              len(wires), sum(len(wire.encode()) for wire in wires),
              len(text.encode())))

    # strategy 1: one streamed pass per PUL; the events carry the node
    # ids from one pass to the next
    start = time.perf_counter()
    current = document.copy()
    for wire in wires:
        current = events_to_document(
            apply_streaming(document_events(current), pul_from_xml(wire),
                            fresh_start=current.allocator.next_value),
            allocator=current.allocator)
    sequential_time = time.perf_counter() - start

    # strategy 2: the store — submit the chain, flush once
    with DocumentStore(workers=1, backend="serial") as store:
        store.open("site", text)
        start = time.perf_counter()
        for wire in wires:
            store.submit("site", pul_from_xml(wire), client="cloud")
        batch = store.flush("site")
        aggregated_time = time.perf_counter() - start
        aggregated = tree_to_xml(store.document("site").root)

    assert aggregated == tree_to_xml(current.root), \
        "the two strategies must agree"
    assert aggregated == tree_to_xml(expected.root)

    print("\nsequential passes:      {:.3f}s".format(sequential_time))
    print("one flush of the chain: {:.3f}s  ({} ops aggregated to {})"
          .format(aggregated_time, sum(len(pul) for pul in puls),
                  batch.submitted_ops))
    print("speedup: {:.2f}x (grows with the number of PULs — Figure 6d); "
          "same bytes, node ids included".format(
              sequential_time / aggregated_time))


if __name__ == "__main__":
    main()
