"""What a resident document costs per node, stage by stage: the parsed
tree, its containment labeling and its structural index.

Generates ``--copies`` XMark documents of ``--scale`` with this
checkout's generator (seeds 0, 1, ...; the defaults are the scale and
the count of the ``indexed_reads`` benchmark's 160 resident documents,
though not its documents), then, in a child process running CHECKOUT's
library, keeps all of them resident through the public calls ``parse_document``,
``ContainmentLabeling().build`` and ``build_index``, and prints the
bytes per node each stage adds — the ``tracemalloc`` difference around
the calls for every document, after a collection. Only the library
comes from CHECKOUT, so a run against the parent and one against the
change measure the same documents::

    python3 tools/resident_bytes.py CHECKOUT [--scale S] [--copies N]
"""

import argparse
import gc
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))


def texts(scale, copies):
    """``copies`` serialized XMark documents of ``scale``."""
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    from repro.workloads import generate_xmark
    from repro.xdm.serializer import serialize

    return [serialize(generate_xmark(scale=scale, seed=seed))
            for seed in range(copies)]


def measure(path):
    """Parse, label and index the texts of the JSON file ``path``, all
    kept resident; ``{"nodes": n, stage: bytes, ...}``."""
    from repro.index import build_index
    from repro.labeling import ContainmentLabeling
    from repro.xdm.parser import parse_document

    with open(path, encoding="utf-8") as handle:
        sources = json.load(handle)
    tracemalloc.start()
    kept = []
    report = {}

    def stage(name, call, *inputs):
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        made = list(map(call, *inputs))
        gc.collect()
        report[name] = tracemalloc.get_traced_memory()[0] - before
        kept.append(made)
        return made

    documents = stage("parse", parse_document, sources)
    labelings = stage("label", lambda document:
                      ContainmentLabeling().build(document), documents)
    stage("index", build_index, documents, labelings)
    report["nodes"] = sum(map(len, documents))
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout")
    parser.add_argument("--scale", type=float, default=0.0095)
    parser.add_argument("--copies", type=int, default=160)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="resident-bytes-") as directory:
        path = os.path.join(directory, "texts.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(texts(args.scale, args.copies), handle)
        source = os.path.join(os.path.abspath(args.checkout), "src")
        child = subprocess.run(
            [sys.executable, "-c",
             "import sys, json; sys.path.insert(0, {!r}); "
             "import resident_bytes; "
             "print(json.dumps(resident_bytes.measure({!r})))"
             .format(HERE, path)],
            env=dict(os.environ, PYTHONPATH=source),
            stdout=subprocess.PIPE, text=True, check=True)
    report = json.loads(child.stdout)
    nodes = report["nodes"]
    print("{} documents, {} nodes, {}".format(args.copies, nodes,
                                              args.checkout))
    total = 0
    for name in ("parse", "label", "index"):
        total += report[name]
        print("{:<6} {:8.1f} B/node {:8.2f} MiB".format(
            name, report[name] / nodes, report[name] / 2 ** 20))
    print("{:<6} {:8.1f} B/node {:8.2f} MiB".format(
        "total", total / nodes, total / 2 ** 20))


if __name__ == "__main__":
    main()
