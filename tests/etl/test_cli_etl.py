"""The ``repro store import`` / ``repro store export`` commands, local
(``--wal-dir``) and remote (``--target``)."""

import io
import os

from repro.cli import main
from repro.store import DocumentStore
from tests.cluster.harness import ServerThread


def corpus(tmp_path, count=3):
    root = tmp_path / "corpus"
    root.mkdir()
    for index in range(count):
        (root / "doc{}.xml".format(index)).write_text(
            "<r><v>{}</v></r>".format(index), encoding="utf-8")
    return root


def run(argv):
    out = io.StringIO()
    code = main(argv, out)
    return code, out.getvalue()


class TestLocal:
    def test_import_then_export_round_trips(self, tmp_path):
        root = corpus(tmp_path)
        wal = str(tmp_path / "wal")
        code, output = run(["store", "import", str(root),
                            "--wal-dir", wal])
        assert code == 0
        assert "imported 3 of 3" in output
        out_dir = str(tmp_path / "dump")
        code, output = run(["store", "export", "--wal-dir", wal,
                            "--out-dir", out_dir])
        assert code == 0
        assert "exported 3 document(s)" in output
        assert sorted(os.listdir(out_dir)) == \
            ["doc0.xml", "doc1.xml", "doc2.xml"]
        with open(os.path.join(out_dir, "doc1.xml"),
                  encoding="utf-8") as handle:
            assert handle.read() == "<r><v>1</v></r>"

    def test_rejects_are_reported_and_tolerated(self, tmp_path):
        root = corpus(tmp_path)
        (root / "bad.xml").write_text("<r", encoding="utf-8")
        code, output = run(["store", "import", str(root),
                            "--wal-dir", str(tmp_path / "wal")])
        assert code == 0
        assert "reject" in output and "bad.xml" in output
        assert "imported 3 of 4" in output

    def test_max_errors_aborts_with_the_stable_code(self, tmp_path,
                                                    capsys):
        root = corpus(tmp_path, count=1)
        (root / "bad.xml").write_text("<r", encoding="utf-8")
        code, __ = run(["store", "import", str(root),
                        "--wal-dir", str(tmp_path / "wal"),
                        "--max-errors", "0"])
        assert code == 2
        assert "error [import-aborted]" in capsys.readouterr().err

    def test_export_filter_and_verbose_paging(self, tmp_path):
        root = corpus(tmp_path)
        wal = str(tmp_path / "wal")
        assert run(["store", "import", str(root),
                    "--wal-dir", wal])[0] == 0
        code, output = run(["store", "export", "--wal-dir", wal,
                            "--docs", "doc2", "--verbose",
                            "--page-size", "1"])
        assert code == 0
        assert "exported 1 document(s)" in output
        assert "page 1: 1 doc(s)" in output

    def test_doc_prefix_is_applied(self, tmp_path):
        root = corpus(tmp_path, count=1)
        wal = str(tmp_path / "wal")
        assert run(["store", "import", str(root), "--wal-dir", wal,
                    "--doc-prefix", "crawl/"])[0] == 0
        with DocumentStore(durability="log", wal_dir=wal) as store:
            assert store.doc_ids() == ["crawl/doc0"]

    def test_needs_a_target_or_a_wal_dir(self, tmp_path, capsys):
        root = corpus(tmp_path, count=1)
        code, __ = run(["store", "import", str(root)])
        assert code == 2
        assert "--target" in capsys.readouterr().err


class TestRemote:
    def test_import_and_export_against_a_server(self, tmp_path):
        root = corpus(tmp_path)
        store = DocumentStore(durability="log",
                              wal_dir=str(tmp_path / "wal"))
        store.enable_replication()
        with ServerThread(store) as node:
            code, output = run(["store", "import", str(root),
                                "--target", node.address])
            assert code == 0
            assert "imported 3 of 3" in output
            assert store.doc_ids() == ["doc0", "doc1", "doc2"]
            out_dir = str(tmp_path / "dump")
            code, output = run(["store", "export",
                                "--target", node.address,
                                "--out-dir", out_dir])
            assert code == 0
            # a replicating server pairs the dump with a resume token
            assert "resume token: " in output
            assert sorted(os.listdir(out_dir)) == \
                ["doc0.xml", "doc1.xml", "doc2.xml"]
