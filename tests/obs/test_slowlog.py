"""The slow-query / slow-flush log: thresholds, plans, JSONL."""

import json

from repro.obs import SlowLog
from repro.store import DocumentStore

DOC = ("<bib><paper><title>T1</title></paper>"
       "<paper><title>T2</title></paper></bib>")


class TestThresholds:
    def test_disabled_log_records_nothing(self):
        log = SlowLog()
        assert log.note_query("d", "/a", 99.0, {"mode": "walker"}) \
            is False
        assert log.note_flush("d", 1, 99.0, {}) is False
        assert log.recent() == []

    def test_fast_requests_stay_below_the_threshold(self):
        log = SlowLog(slow_query_s=1.0, slow_flush_s=1.0)
        assert log.note_query("d", "/a", 0.5, {}) is False
        assert log.note_flush("d", 1, 0.5, {}) is False
        assert log.recent() == []

    def test_ring_is_bounded(self):
        log = SlowLog(slow_query_s=0.0, capacity=3)
        for index in range(6):
            log.note_query("d", "/q{}".format(index), 1.0, {})
        assert [entry["path"] for entry in log.recent()] \
            == ["/q3", "/q4", "/q5"]
        assert [entry["path"] for entry in log.recent(limit=2)] \
            == ["/q4", "/q5"]


class TestStoreIntegration:
    def test_slow_query_entry_embeds_the_recorded_plan(self):
        store = DocumentStore(slow_query_s=0.0)
        try:
            store.open("d1", DOC)
            store.query("d1", "/bib/paper/title")
            [entry] = store.obs.slowlog.recent()
            assert entry["kind"] == "query"
            assert entry["doc_id"] == "d1"
            assert entry["path"] == "/bib/paper/title"
            assert entry["duration_s"] > 0
            # the embedded plan is exactly what explain() reports for
            # the same execution
            explained = store.explain("d1", "/bib/paper/title")["plan"]
            assert entry["plan"] == explained
        finally:
            store.close()

    def test_slow_flush_entry_carries_stage_timings(self, tmp_path):
        store = DocumentStore(slow_flush_s=0.0,
                              wal_dir=str(tmp_path / "wal"))
        try:
            store.open("d1", DOC)
            store.submit_xquery(
                "d1", "insert node <x/> as last into /bib")
            store.flush("d1")
            entries = [entry for entry in store.obs.slowlog.recent()
                       if entry["kind"] == "flush"]
            [entry] = entries
            assert entry["doc_id"] == "d1"
            assert entry["version"] == 1
            assert {"coalesce", "log", "reduce", "apply",
                    "publish"} <= set(entry["stages"])
            assert all(value >= 0
                       for value in entry["stages"].values())
        finally:
            store.close()

    def test_jsonl_file_matches_the_ring(self, tmp_path):
        path = tmp_path / "slow.jsonl"
        store = DocumentStore(slow_query_s=0.0,
                              slow_log_path=str(path))
        try:
            store.open("d1", DOC)
            store.query("d1", "/bib/paper")
            store.query("d1", "//title")
        finally:
            store.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] \
            == store.obs.slowlog.recent()

    def test_trace_id_rides_the_entry_when_traced(self):
        store = DocumentStore(slow_query_s=0.0)
        try:
            store.open("d1", DOC)
            store.obs.run_traced(
                "feedface", "query",
                lambda: store.query("d1", "/bib/paper"))
            [entry] = store.obs.slowlog.recent()
            assert entry["trace_id"] == "feedface"
        finally:
            store.close()
