"""What one connection's expensive read costs another connection's
cheap one: the measurement behind ``INLINE_MAX_NODES`` (the server
runs small lock-free reads on its event loop; see "Where a request
runs" in ``src/repro/api/README.md``).

Spawns ``repro store serve`` from a checkout on a Unix socket, opens a
4-node document, an at-limit one and an above-limit one (~21k nodes).
Connection B times ``//needle`` on the small document — alone, beside
connection A looping ``explain`` of ``//*//*//*`` on the above-limit
document, and beside A looping it on the at-limit one — and prints
p50/p90/p99 per phase with the hog's own median run time. The hog is
an ``explain``: lock-free and routed like a ``query``, but evaluated
every time, where a repeated ``query`` is answered from the version's
memo after its first run. Only the server comes from
CHECKOUT; client, documents and the limit are this checkout's, so a
run against the parent and one against the change ask the same
questions::

    python3 tools/head_of_line.py CHECKOUT [--samples N] [--limit NODES]

``tests/api/test_server_client.py::TestHeadOfLine`` asserts on the same
routines (``serve``, ``probe``, ``beside``, ``hog``).
"""

import argparse
import asyncio
import contextlib
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
HOG = "//*//*//*"
SMALL = "<r><needle>x</needle></r>"


def percentile(samples, share):
    ranked = sorted(samples)
    return ranked[min(len(ranked) - 1, int(share * len(ranked)))]


def xmark_text(scale, most=None):
    """An XMark document of about ``scale``, shrunk until it has at
    most ``most`` nodes; ``(text, nodes)``."""
    from repro.workloads import generate_xmark
    from repro.xdm.serializer import serialize

    while True:
        document = generate_xmark(scale=scale, seed=7)
        if most is None or len(document) <= most:
            return serialize(document), len(document)
        scale *= 0.97


@contextlib.contextmanager
def serve(checkout):
    """A ``repro store serve`` process of ``checkout``; yields
    ``connect()``, which opens one more client connection to it."""
    from repro.api import AsyncStoreClient

    source = os.path.join(os.path.abspath(checkout), "src")
    with tempfile.TemporaryDirectory(prefix="head-of-line-") as directory:
        sock = os.path.join(directory, "store.sock")
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "store", "serve",
             "--listen", "unix:" + sock],
            env=dict(os.environ, PYTHONPATH=source),
            stdout=subprocess.PIPE, text=True)
        try:
            banner = server.stdout.readline().strip()
            assert banner.startswith("listening unix "), banner
            yield lambda: AsyncStoreClient.connect(unix_path=sock)
        finally:
            server.terminate()
            server.wait(timeout=30)


async def probe(client, samples):
    """Round-trip times of ``samples`` small queries, 2 ms apart."""
    latencies = []
    for __ in range(samples):
        start = time.perf_counter()
        await client.query("small", "//needle")
        latencies.append(time.perf_counter() - start)
        await asyncio.sleep(0.002)
    return latencies


def hog(doc_id):
    """The expensive read ``beside`` loops: ``explain`` of ``HOG``."""
    return lambda client: client.explain(doc_id, HOG)


async def beside(connect, busy, samples):
    """Latencies of the small query while ``busy(client)`` loops on
    another connection, and the median time one ``busy`` call took."""
    hog, prober = await connect(), await connect()
    stop = asyncio.Event()
    costs = []

    async def loop_busy():
        while not stop.is_set():
            start = time.perf_counter()
            await busy(hog)
            costs.append(time.perf_counter() - start)

    task = asyncio.ensure_future(loop_busy())
    try:
        await asyncio.sleep(0.2)
        latencies = await probe(prober, samples)
    finally:
        stop.set()
        await task
        await hog.aclose()
        await prober.aclose()
    return latencies, percentile(costs, 0.5)


async def measure(connect, samples, limit):
    client = await connect()
    await client.open("small", SMALL)
    at_text, at_nodes = xmark_text(limit / 45000.0, most=limit)
    above_text, above_nodes = xmark_text(0.36)
    await client.open("at", at_text)
    await client.open("above", above_text)
    await probe(client, 50)
    rows = [("alone", await probe(client, samples), None)]
    for name, doc_id in (
            ("beside above-limit hog ({} nodes)".format(above_nodes),
             "above"),
            ("beside at-limit hog ({} nodes)".format(at_nodes), "at")):
        rows.append((name,) + await beside(connect, hog(doc_id),
                                           samples))
    for name, latencies, cost in rows:
        print("{:<40} p50 {:7.2f}  p90 {:7.2f}  p99 {:7.2f} ms{}".format(
            name, *(percentile(latencies, share) * 1e3
                    for share in (0.5, 0.9, 0.99)),
            "" if cost is None
            else "   hog query {:.1f} ms".format(cost * 1e3)))
    counters = (await client.metrics())["counters"]
    print({key: value for key, value in counters.items()
           if key.startswith("repro_server_requests_total")}
          or "no route counters (a server from before the loop route)")
    await client.aclose()


def main(argv=None):
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    from repro.api.server import INLINE_MAX_NODES

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="repository root to serve from")
    parser.add_argument("--samples", type=int, default=400)
    parser.add_argument("--limit", type=int, default=INLINE_MAX_NODES,
                        help="node count of the at-limit document "
                             "(default: this checkout's "
                             "INLINE_MAX_NODES)")
    args = parser.parse_args(argv)
    with serve(args.checkout) as connect:
        asyncio.run(measure(connect, args.samples, args.limit))
    return 0


if __name__ == "__main__":
    sys.exit(main())
