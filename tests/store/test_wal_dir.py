"""A durability directory has one owner, and only a durable store has
one.

Two stores writing one directory lose acknowledged writes: the second
one's compaction deletes the segment the first is still appending to,
so a batch the first acknowledged is gone after a restart. The
directory's owner lock refuses the second store — in this process or
another, the CLI included — before it touches any file. A ``wal_dir``
under a policy that keeps nothing is refused too, instead of being
silently ignored.
"""

import errno
import io
import os
import subprocess
import sys
import textwrap

import pytest

from repro.cli import main
from repro.errors import DurabilityError, RecoveryError, ReproError
from repro.store import DocumentStore, replay_oracle

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir, "src")

#: holds the directory named by argv[1] until its stdin closes
HOLDER_SCRIPT = textwrap.dedent("""
    import sys

    from repro.store import DocumentStore

    store = DocumentStore(backend="serial", durability="log",
                          wal_dir=sys.argv[1])
    store.open("held", "<r/>")
    print("ready", flush=True)
    sys.stdin.read()
    store.close()
""")


def _store(wal_dir, durability="log"):
    return DocumentStore(backend="serial", durability=durability,
                         wal_dir=str(wal_dir))


def _files(directory):
    """Every file of ``directory`` with its size and modification time:
    what a refused owner must leave as it found it."""
    stats = {name: os.stat(os.path.join(directory, name))
             for name in os.listdir(directory)}
    return {name: (stat.st_size, stat.st_mtime_ns)
            for name, stat in stats.items()}


def _cli(argv):
    out = io.StringIO()
    return main(argv, out), out.getvalue()


class TestOneOwner:
    def test_a_second_store_cannot_compact_an_acknowledged_write_away(
            self, tmp_path):
        """Store A (``log``) opens ``x``; store B (``log+snapshot:1``)
        on the same directory would flush, compact away A's segment and
        leave A's next acknowledged batch in a deleted file. B is
        refused instead, and A's batch survives the restart."""
        wal_dir = tmp_path / "wal"
        with _store(wal_dir) as first:
            first.open("x", "<r/>")
            before = _files(str(wal_dir))
            with pytest.raises(DurabilityError, match=str(wal_dir)):
                _store(wal_dir, "log+snapshot:1")
            assert _files(str(wal_dir)) == before
            first.submit_xquery("x", "insert node <fromA/> as last into /r")
            assert first.flush("x").version == 1
        with _store(wal_dir) as restarted:
            assert restarted.text_version("x") == ("<r><fromA/></r>", 1)
        assert replay_oracle(str(wal_dir))["x"] == ("<r><fromA/></r>", 1)

    def test_close_gives_the_directory_up(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with _store(wal_dir) as first:
            first.open("x", "<r/>")
        with _store(wal_dir, "log+snapshot:1") as second:
            assert second.doc_ids() == ["x"]

    def test_a_store_that_fails_to_start_gives_the_directory_up(
            self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        # generation 1 without generation 0: a gap recovery refuses
        (wal_dir / "wal-00000001.log").write_bytes(b"")
        for __ in range(2):
            with pytest.raises(RecoveryError, match="gaps"):
                _store(wal_dir)
        (wal_dir / "wal-00000001.log").unlink()
        with _store(wal_dir) as store:
            assert store.doc_ids() == []

    def test_a_poisoned_writer_gives_the_directory_up_on_close(
            self, tmp_path):
        class TornFile:
            """Runs out of room mid-write and cannot be cut back."""

            def __init__(self, inner):
                self.inner = inner

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            def truncate(self, size):
                raise OSError(errno.EIO, "injected truncate failure")

            def __getattr__(self, name):
                return getattr(self.inner, name)

        wal_dir = tmp_path / "wal"
        store = _store(wal_dir)
        store.open("x", "<r/>")
        writer = store._durability._writer
        writer._file = TornFile(writer._file)
        store.submit_xquery("x", "insert node <lost/> as last into /r")
        with pytest.raises(DurabilityError, match="poisoned"):
            store.flush("x")
        store.close()
        with _store(wal_dir) as restarted:
            assert restarted.text_version("x") == ("<r/>", 0)

    def test_a_crashed_owner_leaves_the_directory_to_the_next(
            self, tmp_path):
        """An abandoned store — never closed, its segment never sealed
        — holds the directory until its lock descriptor closes, which
        is what the death of its process does; then a restart recovers
        every acknowledged batch."""
        wal_dir = tmp_path / "wal"
        crashed = _store(wal_dir)
        crashed.open("x", "<r/>")
        crashed.submit_xquery("x", "insert node <kept/> as last into /r")
        crashed.flush("x")
        with pytest.raises(DurabilityError, match="owned by another"):
            _store(wal_dir)
        crashed._durability._owner.close()   # the process died
        with _store(wal_dir) as restarted:
            assert restarted.text_version("x") == ("<r><kept/></r>", 1)

    def test_another_process_owns_the_directory(self, tmp_path):
        """A running owner in another process refuses a store here and
        the CLI's ``recover`` and ``import`` alike (exit 2, no file
        touched); once it exits, the directory is free."""
        wal_dir = str(tmp_path / "wal")
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLDER_SCRIPT, wal_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env)
        try:
            assert holder.stdout.readline() == b"ready\n"
            before = _files(wal_dir)
            with pytest.raises(DurabilityError, match=wal_dir):
                _store(wal_dir)
            corpus = tmp_path / "corpus"
            corpus.mkdir()
            (corpus / "doc.xml").write_text("<r/>", encoding="utf-8")
            assert _cli(["store", "recover", "--wal-dir", wal_dir])[0] == 2
            assert _cli(["store", "import", str(corpus),
                         "--wal-dir", wal_dir])[0] == 2
            assert _files(wal_dir) == before
        finally:
            holder.stdin.close()
            assert holder.wait(timeout=30) == 0, holder.stderr.read()
        with _store(wal_dir) as store:
            assert store.doc_ids() == ["held"]


class TestOnlyDurablePoliciesTakeADirectory:
    def test_a_wal_dir_under_durability_off_is_refused(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with pytest.raises(ReproError, match="keeps nothing"):
            DocumentStore(backend="serial", durability="off",
                          wal_dir=str(wal_dir))
        assert not wal_dir.exists()

    def test_the_cli_refuses_it_before_importing(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "doc.xml").write_text("<r/>", encoding="utf-8")
        wal_dir = tmp_path / "wal"
        code, output = _cli(["store", "import", str(corpus),
                             "--wal-dir", str(wal_dir),
                             "--durability", "off"])
        assert code == 2
        assert "imported" not in output
        assert "error [repro]" in capsys.readouterr().err
        assert not wal_dir.exists()
