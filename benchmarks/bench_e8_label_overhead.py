"""E8 — storage overhead of in-document identifiers and labels.

Section 6 reports that storing node identifiers and labeling within the
document makes it "approximatively 3 times bigger". This benchmark
measures our serialized sizes with and without the embedded metadata and
records the factor.
"""

from repro.labeling import ContainmentLabeling
from repro.xdm.serializer import serialize


def test_label_overhead_factor(benchmark, xmark_small):
    labeling = ContainmentLabeling().build(xmark_small)
    labels = {node_id: labeling.exchange_label(node_id).to_string()
              for node_id in labeling.as_mapping()}

    def run():
        plain = serialize(xmark_small)
        stored = serialize(xmark_small, with_ids=True, labels=labels)
        return len(plain), len(stored)

    plain_size, stored_size = benchmark(run)
    factor = stored_size / plain_size
    benchmark.extra_info["overhead_factor"] = round(factor, 2)
    # the paper reports ~3x; anything in that ballpark confirms the shape
    assert factor > 1.5
