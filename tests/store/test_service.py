"""The store's line protocol (``repro store serve``)."""

import io

import pytest

from repro.pul.ops import Rename
from repro.pul.pul import PUL
from repro.pul.serialize import pul_to_xml
from repro.store import DocumentStore, StoreService
from repro.xdm.parser import parse_document

DOC = "<bib><paper><title>T1</title></paper></bib>"


@pytest.fixture
def service():
    service = StoreService(DocumentStore(workers=2, backend="serial"))
    yield service
    if not service.closed:
        service.store.close()


@pytest.fixture
def doc_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def pul_file(tmp_path):
    document = parse_document(DOC)
    title = next(n for n in document.nodes()
                 if n.is_element and n.name == "title")
    pul = PUL([Rename(title.node_id, "headline")], origin="alice")
    path = tmp_path / "rename.pul"
    path.write_text(pul_to_xml(pul), encoding="utf-8")
    return str(path)


class TestCommands:
    def test_full_session(self, service, doc_file, pul_file):
        assert service.handle_line(
            "open d1 {}".format(doc_file)).startswith("ok opened d1")
        assert "depth=1" in service.handle_line(
            "submit d1 {} alice".format(pul_file))
        flushed = service.handle_line("flush d1")
        assert "version=1" in flushed and "relabel=incremental" in flushed
        assert "<headline>T1</headline>" in service.handle_line("text d1")
        assert "d1:v1" in service.handle_line("stats d1")
        assert service.handle_line("docs") == "ok docs d1"
        assert service.handle_line("quit") == "ok bye"
        assert service.closed

    def test_flush_all_and_flush_idle(self, service, doc_file, pul_file):
        service.handle_line("open d1 {}".format(doc_file))
        assert "nothing-pending" in service.handle_line("flush d1")
        service.handle_line("submit d1 {}".format(pul_file))
        assert "batches=1" in service.handle_line("flush-all")

    def test_text_to_file(self, service, doc_file, tmp_path):
        service.handle_line("open d1 {}".format(doc_file))
        out = tmp_path / "out.xml"
        response = service.handle_line("text d1 {}".format(out))
        assert response.startswith("ok wrote")
        assert out.read_text(encoding="utf-8") == DOC

    def test_discard_unwedges_a_rejected_batch(self, service, doc_file,
                                               tmp_path):
        from repro.pul.ops import ReplaceValue
        document = parse_document(DOC)
        victim = next(n.node_id for n in document.nodes() if n.is_text)
        for name, value in (("a.pul", "from-a"), ("b.pul", "from-b")):
            path = tmp_path / name
            path.write_text(pul_to_xml(
                PUL([ReplaceValue(victim, value)])), encoding="utf-8")
        service.handle_line("open d1 {}".format(doc_file))
        service.handle_line("submit d1 {} alice".format(tmp_path / "a.pul"))
        service.handle_line("submit d1 {} bob".format(tmp_path / "b.pul"))
        assert service.handle_line("flush d1").startswith("error")
        assert service.handle_line("flush d1").startswith("error")
        assert service.handle_line("discard d1") == \
            "ok discarded d1 submissions=2"
        assert "nothing-pending" in service.handle_line("flush d1")

    def test_wrote_reports_utf8_bytes(self, service, tmp_path):
        doc = tmp_path / "uni.xml"
        doc.write_text("<a>café</a>", encoding="utf-8")
        service.handle_line("open d1 {}".format(doc))
        out = tmp_path / "out.xml"
        response = service.handle_line("text d1 {}".format(out))
        assert response == "ok wrote {} bytes={}".format(
            out, len(out.read_bytes()))

    def test_inline_text_is_always_one_line(self, service, tmp_path):
        """Newlines in text nodes must not break the one-response-line
        protocol; they travel as character references that parse back to
        the same document."""
        from repro.xdm.parser import parse_document
        from repro.xdm.serializer import serialize
        doc = tmp_path / "multi.xml"
        doc.write_text("<a>line1\nline2</a>", encoding="utf-8")
        service.handle_line("open d1 {}".format(doc))
        response = service.handle_line("text d1")
        assert "\n" not in response
        payload = response.split(" ", 3)[3]
        assert serialize(parse_document(payload)) == \
            serialize(parse_document("<a>line1\nline2</a>"))

    def test_blank_and_comment_lines_ignored(self, service):
        assert service.handle_line("") is None
        assert service.handle_line("   ") is None
        assert service.handle_line("# comment") is None

    def test_errors_are_lines_not_exceptions(self, service, doc_file):
        assert service.handle_line("frobnicate").startswith(
            "error unknown command")
        assert "arguments" in service.handle_line("open d1")
        assert service.handle_line("flush ghost").startswith("error")
        assert service.handle_line(
            "open d1 /no/such/file.xml").startswith("error")
        service.handle_line("open d1 {}".format(doc_file))
        assert service.handle_line(
            "open d1 {}".format(doc_file)).startswith("error")

    def test_stats_without_documents(self, service):
        assert service.handle_line("stats") == "ok stats -"
        assert service.handle_line("docs") == "ok docs -"


class TestDispatcherBackedCommands:
    """PR 4: the line protocol is an adapter over the same
    StoreDispatcher the network server uses."""

    @pytest.fixture
    def query_file(self, tmp_path):
        path = tmp_path / "rename.xq"
        path.write_text('rename node /bib/paper/title as "headline"',
                        encoding="utf-8")
        return str(path)

    def test_submit_xquery_compiles_server_side(self, service, doc_file,
                                                query_file):
        service.handle_line("open d1 {}".format(doc_file))
        response = service.handle_line(
            "submit-xquery d1 {} alice".format(query_file))
        assert response == "ok queued d1 ops=1 depth=1"
        service.handle_line("flush d1")
        assert "<headline>T1</headline>" in service.handle_line("text d1")

    def test_stats_json_matches_the_protocol_serializer(self, service,
                                                        doc_file):
        import json as json_module

        def parsed(response):
            # uptime is read per call (millisecond-rounded): two calls
            # straddling a tick differ there and nowhere else
            assert response.startswith("ok stats-json ")
            payload = json_module.loads(response.split(" ", 2)[2])
            assert payload.pop("uptime_seconds") >= 0
            return payload

        def direct(*args):
            payload = service.dispatch.stats(*args)
            del payload["uptime_seconds"]
            return payload

        service.handle_line("open d1 {}".format(doc_file))
        payload = parsed(service.handle_line("stats --json d1"))
        assert payload == direct("d1")
        assert payload["stats"][0]["doc_id"] == "d1"
        # flag position is free, and the flag composes with no doc_id
        assert parsed(service.handle_line("stats d1 --json")) == payload
        assert parsed(service.handle_line("stats --json")) == direct()

    def test_docs_json(self, service, doc_file):
        import json as json_module

        assert service.handle_line("docs --json") == \
            'ok docs-json {"docs":[]}'
        service.handle_line("open d1 {}".format(doc_file))
        response = service.handle_line("docs --json")
        assert json_module.loads(response.split(" ", 2)[2]) == \
            {"docs": ["d1"]}

    def test_json_flag_is_rejected_elsewhere(self, service, doc_file):
        assert service.handle_line("text d1 --json") == \
            "error text does not take --json"

    def test_error_lines_carry_the_stable_code(self, service, doc_file):
        assert service.handle_line("flush ghost").startswith(
            "error repro ")
        service.handle_line("open d1 {}".format(doc_file))
        response = service.handle_line("submit-xquery d1 {}".format(
            doc_file))   # a document is not a query
        assert response.startswith("error query-syntax ")

    def test_wal_poisoned_flush_is_one_greppable_line(self, tmp_path,
                                                      doc_file,
                                                      pul_file):
        """Regression (PR 4): a flush against a poisoned write-ahead
        log must answer ``error wal-poisoned ...`` — one protocol
        line, the stable code first — not surface a traceback."""
        from repro.store import DocumentStore, StoreService

        store = DocumentStore(workers=2, backend="serial",
                              durability="log",
                              wal_dir=str(tmp_path / "wal"))
        service = StoreService(store)
        try:
            service.handle_line("open d1 {}".format(doc_file))
            service.handle_line("submit d1 {} alice".format(pul_file))
            store._durability._writer._broken = True
            response = service.handle_line("flush d1")
            assert response.startswith("error wal-poisoned ")
            assert "\n" not in response
            # the batch was rejected, not half-applied: the queue is
            # intact and the session keeps answering
            assert "pending=1" in service.handle_line("stats d1")
        finally:
            store._durability._writer._broken = False
            service.handle_line("quit")


class TestServeLoop:
    def test_serve_runs_a_script(self, doc_file, pul_file):
        script = io.StringIO(
            "open d1 {doc}\n"
            "submit d1 {pul} alice\n"
            "flush d1\n"
            "text d1\n"
            "quit\n"
            "open never-reached {doc}\n".format(doc=doc_file,
                                                pul=pul_file))
        out = io.StringIO()
        service = StoreService(DocumentStore(workers=2, backend="serial"))
        assert service.serve(script, out) == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 5  # nothing after quit
        assert lines[0].startswith("ok opened")
        assert lines[-1] == "ok bye"
        assert service.closed

    def test_serve_closes_on_eof(self, doc_file):
        script = io.StringIO("open d1 {}\n".format(doc_file))
        out = io.StringIO()
        service = StoreService(DocumentStore(workers=2, backend="serial"))
        service.serve(script, out)
        assert service.closed
