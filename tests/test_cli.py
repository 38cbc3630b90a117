"""CLI tests (in-process, via main(); the server as a subprocess)."""

import contextlib
import io
import os
import signal
import socket
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import StoreClient
from repro.apply.inmemory import apply_in_memory
from repro.cli import _parse_listen, build_parser, main
from repro.cluster import parse_address
from repro.errors import NotApplicableError, ReproError
from repro.labeling import ContainmentLabeling
from repro.pul.ops import InsertBefore, Rename
from repro.pul.pul import PUL
from repro.pul.serialize import pul_from_xml, pul_to_xml
from repro.reduction import reduce_deterministic
from repro.store import DocumentStore
from repro.xdm import parse_document
from repro.xdm.parser import parse_forest
from repro.xdm.serializer import serialize

from tests.strategies import applicable_puls, documents

DOC = ("<bib><paper><title>T</title><authors><author>A</author>"
       "</authors></paper></bib>")


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC)
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def produce(doc_path, tmp_path, query, name="p.pul", origin=None):
    argv = ["produce", doc_path, query]
    if origin:
        argv += ["--origin", origin]
    code, output = run(argv)
    assert code == 0
    path = tmp_path / name
    path.write_text(output)
    return str(path)


class TestProduce:
    def test_produce_prints_pul(self, doc_path, tmp_path):
        code, output = run(["produce", doc_path,
                            "delete nodes //author"])
        assert code == 0
        pul = pul_from_xml(output.strip())
        assert len(pul) == 1
        assert pul.labels  # labels attached

    def test_origin_recorded(self, doc_path, tmp_path):
        code, output = run(["produce", doc_path, "delete nodes //author",
                            "--origin", "alice"])
        assert pul_from_xml(output.strip()).origin == "alice"

    def test_bad_query_fails_cleanly(self, doc_path):
        code, __ = run(["produce", doc_path, "explode /bib"])
        assert code == 2


class TestReduce:
    def test_reduce_collapses(self, doc_path, tmp_path):
        pul_path = produce(
            doc_path, tmp_path,
            "rename node //title as dead, "
            "replace node //title with <title>n</title>")
        code, output = run(["reduce", doc_path, pul_path])
        assert code == 0
        assert len(pul_from_xml(output.strip())) == 1

    def test_reduce_uses_pul_labels_without_document(self, doc_path,
                                                     tmp_path):
        pul_path = produce(
            doc_path, tmp_path,
            "rename node //title as dead, delete node //title")
        code, output = run(["reduce", pul_path])
        assert code == 0
        assert len(pul_from_xml(output.strip())) == 1

    def test_canonical_flag(self, doc_path, tmp_path):
        pul_path = produce(doc_path, tmp_path,
                           "insert node <x/> into //authors")
        code, output = run(["reduce", "--canonical", doc_path, pul_path])
        assert code == 0
        (op,) = pul_from_xml(output.strip())
        assert op.op_name == "insertIntoAsFirst"

    def test_missing_file_fails_cleanly(self, doc_path):
        code, __ = run(["reduce", "--deterministic", doc_path,
                        "/nonexistent.pul"])
        assert code == 2


class TestIntegrate:
    def test_conflicts_reported_with_exit_code(self, doc_path, tmp_path):
        p1 = produce(doc_path, tmp_path,
                     "rename node //title as a", name="p1.pul",
                     origin="alice")
        p2 = produce(doc_path, tmp_path,
                     "rename node //title as b", name="p2.pul",
                     origin="bob")
        code, output = run(["integrate", "--document", doc_path, p1, p2])
        assert code == 1  # conflicts present

    def test_reconcile(self, doc_path, tmp_path):
        p1 = produce(doc_path, tmp_path,
                     "rename node //title as a", name="p1.pul",
                     origin="alice")
        p2 = produce(doc_path, tmp_path,
                     "rename node //title as b", name="p2.pul",
                     origin="bob")
        code, output = run(["integrate", "--document", doc_path,
                            "--reconcile", p1, p2])
        assert code == 0
        assert len(pul_from_xml(output.strip())) == 1

    def test_policy_parsing(self, doc_path, tmp_path):
        p1 = produce(doc_path, tmp_path,
                     'replace value of node //title/text() with "mine"',
                     name="p1.pul", origin="alice")
        p2 = produce(doc_path, tmp_path,
                     'replace value of node //title/text() with "theirs"',
                     name="p2.pul", origin="bob")
        code, output = run(["integrate", "--document", doc_path,
                            "--reconcile", "--policy", "bob:inserted",
                            p1, p2])
        assert code == 0
        (op,) = pul_from_xml(output.strip())
        assert op.value == "theirs"


class TestAggregateApplyInvert:
    def test_aggregate(self, doc_path, tmp_path):
        p1 = produce(doc_path, tmp_path,
                     "insert node <y>1</y> as last into //paper",
                     name="p1.pul")
        p2 = produce(doc_path, tmp_path,
                     "insert node <z>2</z> as last into //paper",
                     name="p2.pul")
        code, output = run(["aggregate", p1, p2])
        assert code == 0
        # rule C4 cumulates the two same-anchor inserts into one operation
        (op,) = pul_from_xml(output.strip())
        assert len(op.trees) == 2

    def test_apply_streaming_and_inmemory_agree(self, doc_path, tmp_path):
        pul_path = produce(doc_path, tmp_path,
                           "rename node //title as maintitle")
        code_s, out_s = run(["apply", doc_path, pul_path])
        code_m, out_m = run(["apply", "--in-memory", doc_path, pul_path])
        assert code_s == code_m == 0
        assert out_s == out_m
        assert "<maintitle>" in out_s

    def test_streaming_apply_builds_no_tree(self, doc_path, tmp_path,
                                            monkeypatch):
        pul_path = produce(doc_path, tmp_path,
                           "insert node <note>n</note> as last into //paper,"
                           " rename node //title as maintitle")
        with open(pul_path) as handle:
            expected = apply_in_memory(DOC, pul_from_xml(handle.read()))

        def refuse(*args, **kwargs):
            raise AssertionError("streaming apply built a tree")

        monkeypatch.setattr("repro.cli.parse_document", refuse)
        code, output = run(["apply", doc_path, pul_path])
        assert code == 0
        assert output == expected + "\n"

    def test_apply_refuses_like_in_memory(self, doc_path, tmp_path, capsys):
        """``ins←`` on the root: both modes exit 2 with one message."""
        pul_path = tmp_path / "root.pul"
        pul_path.write_text(pul_to_xml(PUL([InsertBefore(
            0, parse_forest("<q/>"))])))
        refusals = []
        for mode in ([], ["--in-memory"]):
            code, output = run(["apply"] + mode + [doc_path, str(pul_path)])
            assert (code, output) == (2, "")
            refusals.append(capsys.readouterr().err)
        assert refusals[0] == refusals[1]
        assert refusals[0].startswith("error [not-applicable]: ins←(0, ")

    def test_invert_roundtrip(self, doc_path, tmp_path):
        pul_path = produce(doc_path, tmp_path, "delete nodes //author")
        code, forward_xml = run(["invert", "--forward", doc_path,
                                 pul_path])
        assert code == 0
        code, inverse_xml = run(["invert", doc_path, pul_path])
        assert code == 0
        inverse = pul_from_xml(inverse_xml.strip())
        assert len(inverse) == 1

    def test_missing_file(self, doc_path):
        code, __ = run(["apply", doc_path, "/nonexistent.pul"])
        assert code == 2


@st.composite
def document_and_pul(draw):
    document = draw(documents())
    pul = draw(applicable_puls(document, max_ops=8))
    pul.attach_labels(ContainmentLabeling().build(document))
    return document, pul


def _colliding_renames():
    """Two attributes renamed to one name: a dynamic error at apply."""
    document = parse_document('<a x="1" y="2"><b/></a>')
    pul = PUL([Rename(attr.node_id, "z")
               for attr in document.root.attributes])
    pul.attach_labels(ContainmentLabeling().build(document))
    return document, pul


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(document_and_pul())
@example(_colliding_renames())
def test_reduce_piped_into_apply_equals_sequential_path(case):
    """``repro reduce --deterministic DOC P | repro apply DOC -`` prints
    ``apply_in_memory(text, reduce_deterministic(pul))``; where that
    raises, the chain exits 2 with the same error code."""
    document, pul = case
    text = serialize(document)
    try:
        expected = apply_in_memory(text, reduce_deterministic(pul))
    except NotApplicableError as error:
        expected, refusal = None, error
    with tempfile.TemporaryDirectory() as scratch:
        doc_path = os.path.join(scratch, "doc.xml")
        pul_path = os.path.join(scratch, "p.pul")
        with open(doc_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with open(pul_path, "w", encoding="utf-8") as handle:
            handle.write(pul_to_xml(pul))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, reduced = run(["reduce", "--deterministic", doc_path,
                                 pul_path])
            if code == 0:
                with mock.patch("sys.stdin", io.StringIO(reduced)):
                    code, output = run(["apply", doc_path, "-"])
    if expected is None:
        assert code == 2
        assert "error [{}]:".format(refusal.code) in stderr.getvalue()
    else:
        assert code == 0
        assert output == expected + "\n"


def test_pipeline_command_is_an_invalid_choice(doc_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["pipeline", doc_path, "p.pul"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'pipeline'" in capsys.readouterr().err


@contextlib.contextmanager
def served(*options):
    """``repro store serve --listen`` as a subprocess on an ephemeral
    port; yields a connected :class:`StoreClient`, stops the server
    with ``SIGTERM`` and waits for its drain-first exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "store", "serve",
         "--listen", "127.0.0.1:0", *options],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env)
    try:
        banner = process.stdout.readline().strip()
        assert banner.startswith("listening tcp "), banner
        with StoreClient.connect(
                host="127.0.0.1",
                port=int(banner.rsplit(":", 1)[1])) as client:
            yield client
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.communicate()


class TestStore:
    def test_serve_session(self, doc_path, tmp_path):
        pul_path = produce(doc_path, tmp_path,
                           "rename node //title as headline",
                           origin="alice")
        with open(pul_path) as handle:
            pul = handle.read()
        with served() as client:
            assert client.open("d1", DOC)["doc_id"] == "d1"
            client.submit("d1", pul, client="alice")
            assert client.flush("d1")["relabel"] == "incremental"
            assert "<headline>T</headline>" in client.text("d1")["text"]
            with pytest.raises(ReproError):
                client.flush("nowhere")

    @pytest.mark.parametrize("argv", [
        [],
        ["--listen", "127.0.0.1:0", "--script", "/dev/null"]])
    def test_serve_has_one_mode(self, argv, capsys):
        """No ``--listen``, no server: argparse usage, exit 2 (the
        stdin line protocol and ``--script`` are gone)."""
        with pytest.raises(SystemExit) as excinfo:
            run(["store", "serve"] + argv)
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_snapshot_every_implies_snapshot_mode(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with served("--wal-dir", str(wal_dir),
                    "--snapshot-every", "1") as client:
            client.open("d1", DOC)
            client.submit_xquery("d1", "rename node //title as headline",
                                 client="alice")
            client.flush("d1")
        # the interval alone must buy compaction, not be dropped
        assert any(name.startswith("snapshot-")
                   for name in os.listdir(str(wal_dir)))

    def test_snapshot_every_requires_wal_dir(self):
        code, __ = run(["store", "serve", "--snapshot-every", "4",
                        "--listen", "127.0.0.1:0"])
        assert code == 2

    def test_snapshot_every_rejects_non_snapshot_mode(self, tmp_path):
        code, __ = run(["store", "serve",
                        "--wal-dir", str(tmp_path / "wal"),
                        "--durability", "log",
                        "--snapshot-every", "4",
                        "--listen", "127.0.0.1:0"])
        assert code == 2

    def test_recover_refuses_missing_wal_dir(self, tmp_path):
        missing = tmp_path / "nonexistent"
        code, __ = run(["store", "recover", "--wal-dir", str(missing)])
        assert code == 2
        # and the typo'd path was not conjured into existence
        assert not missing.exists()

    def test_recover_dump_stays_inside_its_directory(self, tmp_path):
        """Document ids name dump files the way ``store export
        --out-dir`` names them: separators and ``..`` cannot leave the
        directory, and every document is dumped."""
        wal_dir = str(tmp_path / "wal")
        with DocumentStore(wal_dir=wal_dir) as store:
            store.open("../escaped", DOC)
            store.open("sub/dir", DOC)
        dump_dir = tmp_path / "dump" / "inner"
        code, output = run(["store", "recover", "--wal-dir", wal_dir,
                            "--dump-dir", str(dump_dir)])
        assert code == 0
        assert sorted(os.listdir(str(dump_dir))) == [
            ".._escaped.xml", "sub_dir.xml"]
        assert os.listdir(str(tmp_path / "dump")) == ["inner"]
        assert (dump_dir / "sub_dir.xml").read_text() == DOC

    @pytest.mark.parametrize("flag", [
        ["--workers", "2"], ["--workers", "0"],
        ["--backend", "thread"], ["--backend", "process"]])
    def test_serve_refuses_any_other_worker_count_or_backend(
            self, flag, capsys):
        """A batch is reduced once: ``--workers`` takes only 1 and
        ``--backend`` only serial, and anything else is an argparse
        refusal before a store is built."""
        with pytest.raises(SystemExit) as excinfo:
            run(["store", "serve", "--listen", "127.0.0.1:0"] + flag)
        assert excinfo.value.code == 2
        assert "invalid choice: " in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--workers", "1"], ["--backend", "serial"],
        ["--backend", "process"]])
    @pytest.mark.parametrize("argv", [
        ["recover", "--wal-dir", "unused"],
        ["import", "doc.xml"],
        ["export"],
        ["query", "d1", "//author"],
        ["metrics"]])
    def test_offline_commands_offer_no_concurrency_knobs(self, argv,
                                                         flag, capsys):
        """Only ``store serve`` takes the retired ``--workers``/
        ``--backend`` (the values the benchmark passes); a command on a
        local directory offers neither."""
        with pytest.raises(SystemExit) as excinfo:
            run(["store"] + argv + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: " + " ".join(flag) \
            in capsys.readouterr().err

    @pytest.mark.parametrize("flags", (
        [], ["--workers", "1", "--backend", "serial"]),
        ids=("default", "explicit"))
    def test_serve_parses_the_serial_single_worker_argv(self, flags):
        args = build_parser().parse_args(
            ["store", "serve", "--listen", "unix:s.sock"] + flags)
        assert (args.workers, args.backend) == (1, "serial")

    @pytest.mark.parametrize("argv", [
        ["import", "doc.xml"],
        ["export"],
        ["query", "d1", "//author"],
        ["metrics"]])
    def test_target_and_wal_dir_are_mutually_exclusive(self, argv,
                                                       capsys):
        with pytest.raises(SystemExit) as excinfo:
            run(["store"] + argv + ["--target", "127.0.0.1:1",
                                    "--wal-dir", "unused"])
        assert excinfo.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_query_against_a_durability_directory(self, doc_path,
                                                  tmp_path):
        wal_dir = str(tmp_path / "wal")
        code, __ = run(["store", "import", "--wal-dir", wal_dir, doc_path])
        assert code == 0
        code, output = run(["store", "query", "--wal-dir", wal_dir,
                            "doc", "//author"])
        assert code == 0
        assert "doc doc version 0: 1 node(s)" in output
        assert "<author>A</author>" in output

    def test_query_explain_prints_the_plan(self, doc_path, tmp_path):
        wal_dir = str(tmp_path / "wal")
        run(["store", "import", "--wal-dir", wal_dir, doc_path])
        code, output = run(["store", "query", "--wal-dir", wal_dir, "doc",
                            "//paper//author", "--explain"])
        assert code == 0
        assert "plan: indexed execution" in output
        assert output.count("index-scan") == 2
        assert "<author>" not in output    # explain carries no nodes

    def test_query_requires_a_store_location(self):
        code, __ = run(["store", "query", "d1", "//author"])
        assert code == 2


#: ports a host:port address refuses: out of range, signed, with an
#: underscore, not a number, missing
BAD_PORTS = ["70000", "-5", "+80", "8_0", "abc", ""]


class TestAddresses:
    """One parser takes every host:port the CLI listens on or dials. A
    bad port exits 2 with a typed error before any socket is bound or
    connected (a socket would wrap 70000 round to port 4464)."""

    @staticmethod
    def _refused(argv, capsys):
        used = mock.Mock(side_effect=AssertionError("a socket was used"))
        with mock.patch.object(socket.socket, "bind", used), \
                mock.patch.object(socket.socket, "connect", used):
            code, __ = run(argv)
        assert code == 2, argv
        assert "error [repro]: " in capsys.readouterr().err, argv

    @pytest.mark.parametrize("port", BAD_PORTS)
    def test_listen_refuses_bad_ports(self, port, capsys):
        address = "127.0.0.1:" + port
        for argv in (["--listen", address],
                     ["--listen", "127.0.0.1:0", "--metrics-listen",
                      address]):
            self._refused(["store", "serve"] + argv, capsys)

    @pytest.mark.parametrize("port", BAD_PORTS)
    def test_dial_refuses_bad_ports(self, port, capsys):
        address = "127.0.0.1:" + port
        for argv in (["store", "serve", "--listen", "127.0.0.1:0",
                      "--follow", address],
                     ["store", "import", "--target", address, "doc.xml"],
                     ["store", "export", "--target", address],
                     ["store", "query", "--target", address, "d1", "//a"],
                     ["store", "metrics", "--target", address],
                     ["store", "top", "--target", address],
                     ["cluster", "status", "127.0.0.1:1", address],
                     ["cluster", "promote", "--node", address]):
            self._refused(argv, capsys)

    def test_good_addresses_parse(self):
        assert parse_address("127.0.0.1:65535") == ("127.0.0.1", 65535)
        assert parse_address("node:080") == ("node", 80)
        assert _parse_listen(":0") == ("127.0.0.1", 0, None)
        assert _parse_listen("unix:s.sock") == (None, 0, "s.sock")
