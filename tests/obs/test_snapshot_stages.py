"""``repro_store_snapshot_stage_seconds``: every snapshot compaction is
timed once per stage — ``capture`` (the documents' payloads),
``encode`` (each into the record), ``write`` (the file, its fsync and
rename) and ``compact`` (seal the segment, delete what the snapshot
supersedes) — and the stages nested in the write are counted once."""

import time

from repro.api.dispatch import StoreDispatcher
from repro.store import DocumentStore

STAGES = ("capture", "encode", "write", "compact")
DOC = "<bib><paper year='1999'><title>T1</title></paper></bib>"


def _series(store):
    histograms = store.metrics_snapshot()["histograms"]
    return {stage: histograms.get(
        'repro_store_snapshot_stage_seconds{{stage="{}"}}'.format(stage),
        {"count": 0, "sum": 0.0}) for stage in STAGES}


def test_each_stage_once_per_snapshot(tmp_path):
    with DocumentStore(durability="log", wal_dir=str(tmp_path)) as store:
        assert {stage: series["count"] for stage, series
                in _series(store).items()} == dict.fromkeys(STAGES, 0)
        store.bulk_load([{"doc_id": d, "xml": DOC} for d in "abc"])
        started = time.perf_counter()
        store.snapshot()
        elapsed = time.perf_counter() - started
        series = _series(store)
        assert {stage: each["count"] for stage, each
                in series.items()} == dict.fromkeys(STAGES, 1)
        assert all(each["sum"] > 0 for each in series.values())
        # nested stages are counted once: together they take no longer
        # than the snapshot did
        assert sum(each["sum"] for each in series.values()) <= elapsed
        store.snapshot()
        assert {stage: each["count"] for stage, each
                in _series(store).items()} == dict.fromkeys(STAGES, 2)
        # the metrics op and the text exposition carry them too
        dispatcher = StoreDispatcher(store)
        histograms = dispatcher.metrics()["histograms"]
        for stage in STAGES:
            assert 'repro_store_snapshot_stage_seconds{{stage="{}"}}' \
                .format(stage) in histograms
        assert "# TYPE repro_store_snapshot_stage_seconds histogram" \
            in dispatcher.metrics(format="prometheus")["text"]


def test_a_flush_triggered_compaction_is_timed(tmp_path):
    with DocumentStore(durability="log+snapshot:1",
                       wal_dir=str(tmp_path)) as store:
        store.open("a", DOC)
        store.submit_xquery("a", 'rename node /bib/paper as "p"')
        store.flush("a")
        assert {stage: each["count"] for stage, each
                in _series(store).items()} == dict.fromkeys(STAGES, 1)


def test_a_store_without_a_log_has_no_snapshot_stages():
    with DocumentStore() as store:
        assert store.snapshot() is None
        assert {stage: each["count"] for stage, each
                in _series(store).items()} == dict.fromkeys(STAGES, 0)
