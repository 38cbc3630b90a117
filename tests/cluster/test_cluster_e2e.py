"""The 3-node acceptance path, real processes end to end.

``repro store serve`` spawns a leader and two replicas (one durable,
one memory-only); concurrent clients drive writes through the leader;
the replicas catch up; the leader is SIGKILLed — no drain, no
goodbye — and a replica is promoted with the CLI. Every acknowledged
batch must survive: the promoted node and the remaining replica serve
document text byte-identical to a :class:`StatelessBaseline` oracle fed
exactly the acknowledged submissions, and the promoted node accepts
new writes from a client that dials it.
"""

import asyncio
import os
import signal
import subprocess
import sys
import time

from repro.api.client import AsyncStoreClient, StoreClient
from repro.cluster import parse_address
from repro.store import StatelessBaseline
from repro.xquery import compile_pul

CLIENTS = 4
ROUNDS = 3

SHARED_DOC = "<shared>{}</shared>".format(
    "".join("<s{0}>v</s{0}>".format(i) for i in range(CLIENTS)))


def client_doc(index):
    return ("<doc><items/><meta><owner>c{}</owner></meta></doc>"
            .format(index))


def insert_expr(round_index):
    return ('insert node <item r="{}"/> as last into /doc/items'
            .format(round_index))


def spawn_node(env, extra):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "store", "serve",
         "--listen", "127.0.0.1:0", "--backend", "thread",
         "--poll-wait", "0.5"] + extra,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env)
    banner = process.stdout.readline().strip()
    assert banner.startswith("listening tcp "), banner
    address = banner.split()[-1]
    assert process.stdout.readline().startswith("role ")
    return process, address


def node_stats(address, **connect_kwargs):
    host, port = parse_address(address)
    with StoreClient.connect(host=host, port=port,
                             **connect_kwargs) as client:
        return client.stats()


def wait_for_catchup(addresses, leader_seq, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        applied = [
            (node_stats(address).get("replication") or {})
            .get("applied_seq") for address in addresses]
        if all(value == leader_seq for value in applied):
            return True
        time.sleep(0.2)
    return False


def test_leader_sigkill_promote_preserves_every_acked_batch(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    leader_wal = str(tmp_path / "leader-wal")
    replica_wal = str(tmp_path / "replica-wal")
    processes = []
    try:
        leader, leader_addr = spawn_node(
            env, ["--replicate", "--wal-dir", leader_wal,
                  "--durability", "log"])
        processes.append(leader)
        durable_replica, durable_addr = spawn_node(
            env, ["--follow", leader_addr,
                  "--replica-id", "r-durable",
                  "--wal-dir", replica_wal, "--durability", "log"])
        processes.append(durable_replica)
        memory_replica, memory_addr = spawn_node(
            env, ["--follow", leader_addr,
                  "--replica-id", "r-memory"])
        processes.append(memory_replica)

        host, port = parse_address(leader_addr)

        async def client_session(index):
            client = await AsyncStoreClient.connect(
                host=host, port=port, client="c{}".format(index),
                retries=3)
            doc_id = "d{}".format(index)
            await client.open(doc_id, client_doc(index))
            for round_index in range(ROUNDS):
                await client.submit_xquery(doc_id,
                                           insert_expr(round_index))
                flushed = await client.flush(doc_id)
                assert flushed["version"] == round_index + 1
            await client.submit_xquery(
                "shared",
                'rename node /shared/s{0} as "t{0}"'.format(index))
            await client.aclose()

        async def drive():
            opener = await AsyncStoreClient.connect(
                host=host, port=port, client="opener", retries=3)
            await opener.open("shared", SHARED_DOC)
            await asyncio.gather(*[client_session(index)
                                   for index in range(CLIENTS)])
            flushed = await opener.flush("shared")
            assert flushed["clients"] == CLIENTS
            await opener.aclose()

        asyncio.run(asyncio.wait_for(drive(), 120))

        # every write above was acknowledged; catch the replicas up to
        # the leader's stream end (the manual-failover runbook: fence
        # writes, wait for lag zero, only then fail over)
        leader_seq = node_stats(leader_addr)["replication"]["seq"]
        assert wait_for_catchup([durable_addr, memory_addr], leader_seq)

        # no drain, no goodbye
        leader.send_signal(signal.SIGKILL)
        leader.wait(timeout=30)

        promote = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster", "promote",
             "--node", durable_addr],
            env=env, capture_output=True, text=True, timeout=120)
        assert promote.returncode == 0, promote.stderr
        assert "now leader" in promote.stdout

        # the oracle: exactly the acknowledged submissions
        baseline = StatelessBaseline()
        for index in range(CLIENTS):
            doc_id = "d{}".format(index)
            baseline.open(doc_id, client_doc(index))
            for round_index in range(ROUNDS):
                baseline.submit(doc_id, compile_pul(
                    insert_expr(round_index),
                    baseline.document(doc_id)),
                    client="c{}".format(index))
                baseline.flush(doc_id)
        baseline.open("shared", SHARED_DOC)
        for index in range(CLIENTS):
            baseline.submit("shared", compile_pul(
                'rename node /shared/s{0} as "t{0}"'.format(index),
                baseline.document("shared")),
                client="c{}".format(index))
        baseline.flush("shared")

        all_docs = ["d{}".format(index) for index in range(CLIENTS)] \
            + ["shared"]

        def texts(address):
            host_, port_ = parse_address(address)
            with StoreClient.connect(host=host_, port=port_,
                                     retries=2) as client:
                return {doc_id: client.text(doc_id)["text"]
                        for doc_id in all_docs}

        promoted_texts = texts(durable_addr)
        remaining_texts = texts(memory_addr)
        for doc_id in all_docs:
            expected = baseline.text(doc_id)
            assert promoted_texts[doc_id] == expected, doc_id
            assert remaining_texts[doc_id] == expected, doc_id

        # after a promote, clients re-dial: new writes go to the
        # promoted node's own address
        host, port = parse_address(durable_addr)
        with StoreClient.connect(host=host, port=port,
                                 client="post-failover",
                                 retries=2) as client:
            client.submit_xquery(
                "d0", 'insert node <post-failover/> as last into /doc')
            flushed = client.flush("d0")
            assert flushed["flushed"]
        assert "<post-failover/>" in texts(durable_addr)["d0"]

        stats = node_stats(durable_addr)["replication"]
        assert stats["role"] == "leader"

        # clean shutdown of the survivors
        for process in (durable_replica, memory_replica):
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
