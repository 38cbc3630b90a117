"""The ``repro cluster`` command group and the replication arguments
of ``repro store serve``, in-process via ``main()``."""

import io

import pytest

from repro.cli import main
from repro.cluster import ReplicaStore, ReplicaSync
from repro.store import DocumentStore
from tests.cluster.harness import ServerThread

DOC = "<doc><items/></doc>"


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_serve_argument_validation(tmp_path):
    code, __ = run(["store", "serve", "--replicate",
                    "--listen", "127.0.0.1:0"])
    assert code == 2          # a leader must ship a WAL
    with pytest.raises(SystemExit) as refused:
        run(["store", "serve", "--listen", "127.0.0.1:0", "--follow"])
    assert refused.value.code == 2    # a replica must name its leader
    code, __ = run(["store", "serve", "--replicate",
                    "--listen", "nonsense", "--wal-dir", "ignored"])
    assert code == 2          # bad listen spec
    # a node is a leader or a follower, never both
    with pytest.raises(SystemExit) as refused:
        run(["store", "serve", "--listen", "127.0.0.1:0",
             "--wal-dir", str(tmp_path / "wal"), "--replicate",
             "--follow", "127.0.0.1:1"])
    assert refused.value.code == 2
    code, __ = run(["store", "serve", "--listen", "127.0.0.1:0",
                    "--follow", "nonsense"])
    assert code == 2          # the leader's address is host:port


def test_status_and_promote_against_live_nodes(tmp_path):
    leader_store = DocumentStore(workers=1, backend="serial",
                                 durability="log",
                                 wal_dir=str(tmp_path / "wal"))
    leader_store.enable_replication()
    with ServerThread(leader_store) as leader_node:
        leader_store.open("d1", DOC)
        replica = ReplicaStore(leader_address=leader_node.address,
                               workers=1, backend="serial",
                               durability="log",
                               wal_dir=str(tmp_path / "replica-wal"))
        with ServerThread(replica) as replica_node:
            sync = ReplicaSync(replica, leader_node.address, "r1",
                               wait_s=0.2).start()
            try:
                code, output = run(
                    ["cluster", "status", leader_node.address,
                     replica_node.address])
                assert code == 0
                assert "leader seq=" in output
                assert "replica of {}".format(leader_node.address) \
                    in output

                code, output = run(["cluster", "promote", "--node",
                                    replica_node.address])
                assert code == 0
                assert "now leader" in output
                assert replica.role == "leader"

                # promoted node reports as leader; promote again is
                # idempotent and says so
                code, output = run(["cluster", "status",
                                    replica_node.address])
                assert code == 0 and "leader seq=" in output
                code, output = run(["cluster", "promote", "--node",
                                    replica_node.address])
                assert code == 0 and "already promoted" in output
            finally:
                sync.stop()


def test_status_reports_unreachable_nodes():
    code, output = run(["cluster", "status", "127.0.0.1:1",
                        "--retries", "0"])
    assert code == 1
    assert "unreachable" in output
