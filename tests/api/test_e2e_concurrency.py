"""End-to-end: N concurrent network clients against the stateless oracle.

Two layers:

* in-process — a :class:`StoreServer` on the test's event loop, eight
  :class:`AsyncStoreClient` sessions submitting interleaved XQuery
  updates and raw PULs, with every final document byte-compared against
  a :class:`StatelessBaseline` fed the same submissions;
* subprocess — ``repro store serve --listen`` on a durable store,
  eight concurrent clients, then SIGTERM with submissions still
  queued: the drain-first shutdown must push them into the write-ahead
  log, and the *recovered* store must be byte-identical to the oracle.
"""

import asyncio
import os
import signal
import subprocess
import sys

from repro.api import AsyncStoreClient, StoreServer
from repro.pul.ops import ReplaceValue
from repro.pul.pul import PUL
from repro.store import DocumentStore, StatelessBaseline
from repro.xdm.parser import parse_document

CLIENTS = 8
ROUNDS = 3

SHARED_DOC = "<shared>{}</shared>".format(
    "".join("<s{0}>v</s{0}>".format(i) for i in range(CLIENTS)))


def client_doc(index):
    return ("<doc><items/><meta><owner>c{}</owner></meta></doc>"
            .format(index))


def owner_text_id(doc_text):
    """Node id of the owner text node (ids are parse-deterministic, so
    the client can compute them locally from the text it opened)."""
    document = parse_document(doc_text)
    owner = next(n for n in document.nodes()
                 if n.is_element and n.name == "owner")
    return owner.children[0].node_id


def insert_expr(round_index):
    return ('insert node <item r="{}"/> as last into /doc/items'
            .format(round_index))


def owner_pul(text_id, round_index, origin):
    return PUL([ReplaceValue(text_id, "v{}".format(round_index))],
               origin=origin)


def run(coro, timeout=120):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class TestConcurrentClientsMatchBaseline:
    def test_eight_clients_interleaving_xquery_and_raw_puls(self):
        """Each client drives its own document through flushed rounds
        of server-compiled XQuery updates interleaved with locally
        produced PULs; all eight also hit one shared document whose
        batch coalesces across all eight identities."""
        final = {}

        async def client_session(server, index):
            host, port = server.tcp_address
            client = await AsyncStoreClient.connect(
                host=host, port=port, client="c{}".format(index))
            doc_id = "d{}".format(index)
            doc_text = client_doc(index)
            text_id = owner_text_id(doc_text)
            await client.open(doc_id, doc_text)
            for round_index in range(ROUNDS):
                await client.submit_xquery(doc_id,
                                           insert_expr(round_index))
                await client.submit(doc_id, owner_pul(
                    text_id, round_index, "c{}".format(index)))
                flushed = await client.flush(doc_id)
                assert flushed["version"] == round_index + 1
            await client.submit_xquery(
                "shared",
                'rename node /shared/s{0} as "t{0}"'.format(index))
            final[doc_id] = (await client.text(doc_id))["text"]
            await client.aclose()

        async def scenario():
            server = StoreServer(
                DocumentStore(),
                host="127.0.0.1", port=0)
            async with server:
                opener = await AsyncStoreClient.connect(
                    host=server.tcp_address[0],
                    port=server.tcp_address[1], client="opener")
                await opener.open("shared", SHARED_DOC)
                await asyncio.gather(*[
                    client_session(server, index)
                    for index in range(CLIENTS)])
                flushed = await opener.flush("shared")
                # all eight identities coalesced into one batch
                assert flushed["clients"] == CLIENTS
                final["shared"] = (await opener.text("shared"))["text"]
                await opener.aclose()

        run(scenario())

        # the oracle: same submissions, same per-client order
        baseline = StatelessBaseline()
        for index in range(CLIENTS):
            doc_id = "d{}".format(index)
            doc_text = client_doc(index)
            text_id = owner_text_id(doc_text)
            baseline.open(doc_id, doc_text)
            for round_index in range(ROUNDS):
                from repro.xquery import compile_pul
                baseline.submit(doc_id, compile_pul(
                    insert_expr(round_index),
                    baseline.document(doc_id)),
                    client="c{}".format(index))
                baseline.submit(doc_id, owner_pul(
                    text_id, round_index, "c{}".format(index)),
                    client="c{}".format(index))
                baseline.flush(doc_id)
            assert final[doc_id] == baseline.text(doc_id), doc_id
        from repro.xquery import compile_pul
        baseline.open("shared", SHARED_DOC)
        for index in range(CLIENTS):
            baseline.submit("shared", compile_pul(
                'rename node /shared/s{0} as "t{0}"'.format(index),
                baseline.document("shared")),
                client="c{}".format(index))
        baseline.flush("shared")
        assert final["shared"] == baseline.text("shared")


class TestSigtermDrainRecovery:
    def test_sigterm_drains_and_recovery_matches_oracle(self, tmp_path):
        """The acceptance path: concurrent clients leave submissions
        *queued* when SIGTERM lands; the drain-first shutdown flushes
        them into the WAL, and the recovered store is byte-identical to
        the stateless oracle that saw every submission."""
        wal_dir = str(tmp_path / "wal")
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "store", "serve",
             "--listen", "127.0.0.1:0",
             "--wal-dir", wal_dir, "--durability", "log"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("listening tcp "), banner
            port = int(banner.rsplit(":", 1)[1])

            async def client_session(index):
                client = await AsyncStoreClient.connect(
                    host="127.0.0.1", port=port,
                    client="c{}".format(index))
                doc_id = "d{}".format(index)
                doc_text = client_doc(index)
                text_id = owner_text_id(doc_text)
                await client.open(doc_id, doc_text)
                for round_index in range(ROUNDS):
                    await client.submit_xquery(doc_id,
                                               insert_expr(round_index))
                    await client.flush(doc_id)
                # the queued tail SIGTERM must not lose: one raw PUL
                # and one expression submission, never flushed
                await client.submit(doc_id, owner_pul(
                    text_id, 99, "c{}".format(index)))
                await client.submit_xquery(
                    doc_id, 'insert node <tail/> as last into /doc')
                await client.aclose()

            async def drive():
                await asyncio.gather(*[client_session(index)
                                       for index in range(CLIENTS)])
            asyncio.run(asyncio.wait_for(drive(), 120))

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        from repro.xquery import compile_pul
        with DocumentStore(durability="log",
                           wal_dir=wal_dir) as recovered:
            assert recovered.recovery is not None
            baseline = StatelessBaseline()
            for index in range(CLIENTS):
                doc_id = "d{}".format(index)
                doc_text = client_doc(index)
                text_id = owner_text_id(doc_text)
                baseline.open(doc_id, doc_text)
                for round_index in range(ROUNDS):
                    baseline.submit(doc_id, compile_pul(
                        insert_expr(round_index),
                        baseline.document(doc_id)),
                        client="c{}".format(index))
                    baseline.flush(doc_id)
                baseline.submit(doc_id, owner_pul(
                    text_id, 99, "c{}".format(index)),
                    client="c{}".format(index))
                baseline.submit(doc_id, compile_pul(
                    'insert node <tail/> as last into /doc',
                    baseline.document(doc_id)),
                    client="c{}".format(index))
                baseline.flush(doc_id)   # the drain's flush
                assert recovered.text(doc_id) == \
                    baseline.text(doc_id), doc_id
                assert recovered.version(doc_id) == ROUNDS + 1
