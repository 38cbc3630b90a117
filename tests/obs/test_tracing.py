"""Request tracing: ids, span trees, the wire envelope, the ring."""

import pytest

from repro.api import protocol
from repro.errors import ProtocolError
from repro.obs import Tracer, new_trace_id
from repro.store import DocumentStore

DOC = "<bib><paper><title>T1</title></paper></bib>"


class TestTraceIds:
    def test_ids_are_distinct_hex(self):
        ids = {new_trace_id() for __ in range(64)}
        assert len(ids) == 64
        for trace_id in ids:
            int(trace_id, 16)


class TestTracer:
    def test_run_traced_records_a_span_tree(self):
        tracer = Tracer()

        def body():
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
            return 42

        assert tracer.run_traced("t1", "op", body) == 42
        [trace] = tracer.recent()
        assert trace["trace_id"] == "t1"
        assert trace["op"] == "op"
        root = trace["spans"]
        assert root["name"] == "op"
        [outer] = root["children"]
        assert outer["name"] == "outer"
        assert [child["name"] for child in outer["children"]] \
            == ["inner"]
        assert root["duration_s"] >= outer["duration_s"] >= 0

    def test_without_a_trace_id_nothing_is_recorded(self):
        tracer = Tracer()
        assert tracer.run_traced(None, "op", lambda: "r") == "r"
        with tracer.span("orphan"):
            pass
        assert tracer.recent() == []
        assert Tracer.current_trace_id() is None

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(capacity=2)
        for index in range(5):
            tracer.run_traced("t{}".format(index), "op", lambda: None)
        assert [t["trace_id"] for t in tracer.recent()] == ["t3", "t4"]
        assert [t["trace_id"] for t in tracer.recent(limit=1)] == ["t4"]

    def test_exceptions_still_close_the_trace(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            tracer.run_traced("t1", "op", self._boom)
        [trace] = tracer.recent()
        assert trace["trace_id"] == "t1"
        assert Tracer.current_trace_id() is None

    @staticmethod
    def _boom():
        raise RuntimeError("boom")


class TestWireEnvelope:
    """The trace id must survive both codecs, v1 JSON and v2 binary."""

    @pytest.mark.parametrize("version", [1, 2])
    def test_trace_round_trips(self, version):
        message = protocol.request(7, "stats", {"doc_id": "d1"},
                                   trace="abc123")
        decoder = protocol.FrameDecoder()
        decoder.use_version(version)
        [decoded] = decoder.feed(protocol.encode_frame(message,
                                                       version))
        assert decoded["id"] == 7
        assert decoded["op"] == "stats"
        assert decoded["args"] == {"doc_id": "d1"}
        assert decoded["trace"] == "abc123"
        # parse_request tolerates the extra envelope key
        assert protocol.parse_request(decoded) \
            == (7, "stats", {"doc_id": "d1"})

    @pytest.mark.parametrize("version", [1, 2])
    def test_untraced_requests_are_byte_identical_to_before(self,
                                                            version):
        with_none = protocol.encode_frame(
            protocol.request(1, "docs", trace=None), version)
        plain = protocol.encode_frame(protocol.request(1, "docs"),
                                      version)
        assert with_none == plain
        if version == 2:
            assert plain[4] == 0x01      # request kind, not traced

    def test_v2_traced_frame_uses_kind_0x04(self):
        frame = protocol.encode_frame(
            protocol.request(1, "docs", trace="f" * 16), 2)
        assert frame[4] == 0x04

    def test_v2_rejects_a_non_string_trace_id(self):
        frame = protocol.encode_frame(
            protocol.request(1, "docs", trace=123), 2)
        decoder = protocol.FrameDecoder()
        decoder.use_version(2)
        with pytest.raises(ProtocolError):
            decoder.feed(frame)


class TestTracedFlush:
    def test_flush_reconstructs_the_stage_span_tree(self, tmp_path):
        store = DocumentStore(wal_dir=str(tmp_path / "wal"))
        try:
            store.open("d1", DOC)
            store.submit_xquery(
                "d1", "insert node <x/> as last into /bib")
            trace_id = new_trace_id()
            result = store.obs.run_traced(
                trace_id, "flush", lambda: store.flush("d1"))
            assert result.version == 1
            [trace] = [t for t in store.obs.tracer.recent()
                       if t["trace_id"] == trace_id]
            stages = {child["name"]: child
                      for child in trace["spans"]["children"]}
            # one flush reconstructs in pipeline order: the reduced
            # batch is encoded (the first log span) before the apply
            # and appended (the second, holding the durability spans)
            # only once the index is derived, before the publish
            assert [child["name"] for child in
                    trace["spans"]["children"]] == [
                "coalesce", "reduce", "log", "copy", "apply",
                "index-derive", "log", "publish"]
            wal_children = [child["name"]
                            for child in stages["log"]["children"]]
            assert "wal-append" in wal_children
            assert "fsync-wait" in wal_children
            for span in stages.values():
                assert span["duration_s"] >= 0
                assert span["start_offset_s"] >= 0
        finally:
            store.close()

    def test_stage_timings_feed_the_histogram_even_untraced(self):
        store = DocumentStore()
        try:
            store.open("d1", DOC)
            store.submit_xquery(
                "d1", "insert node <x/> as last into /bib")
            store.flush("d1")
            snap = store.metrics_snapshot()
            key = 'repro_store_flush_stage_seconds{stage="publish"}'
            assert snap["histograms"][key]["count"] == 1
            assert store.obs.tracer.recent() == []
        finally:
            store.close()
