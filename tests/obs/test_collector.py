"""The cyclic collector's series and the restart stages in the
exposition: ``repro_gc_collections_total`` / ``repro_gc_seconds_total``
per generation (one process-wide ``gc.callbacks`` hook) and
``repro_store_recovery_stage_seconds``."""

import gc

import pytest

from repro.obs.collector import _on_collection
from repro.store import DocumentStore

DOC = "<bib><paper><title>T1</title></paper></bib>"


def _gc_series(counters):
    return {key: value for key, value in counters.items()
            if key.startswith("repro_gc_")}


class TestCollectorSeries:
    def test_one_hook_for_every_store(self):
        with DocumentStore(), \
                DocumentStore():
            assert gc.callbacks.count(_on_collection) == 1

    def test_a_collection_counts_in_its_generation(self):
        with DocumentStore() as store:
            before = store.metrics_snapshot()["counters"]
            gc.collect()
            after = store.metrics_snapshot()["counters"]
        for generation in (0, 1, 2):
            assert 'repro_gc_collections_total{{generation="{}"}}'.format(
                generation) in after
        key = 'repro_gc_collections_total{generation="2"}'
        assert after[key] >= before[key] + 1
        seconds = 'repro_gc_seconds_total{generation="2"}'
        assert after[seconds] > before[seconds]

    def test_the_text_exposition_appends_the_series(self):
        with DocumentStore() as store:
            text = store.metrics_text()
        assert "# TYPE repro_gc_collections_total counter\n" in text
        assert "# TYPE repro_gc_seconds_total counter\n" in text
        for generation in (0, 1, 2):
            assert 'repro_gc_seconds_total{{generation="{}"}} '.format(
                generation) in text
        # uptime stays the last series
        assert text.rstrip("\n").splitlines()[-1].startswith(
            "repro_uptime_seconds ")

    def test_a_store_without_metrics_shows_none(self):
        with DocumentStore(metrics=False) as store:
            assert _gc_series(store.metrics_snapshot()["counters"]) == {}
            assert "repro_gc_" not in store.metrics_text()


class TestRecoveryStages:
    STAGES = ("load", "restore", "replay", "collect")

    @staticmethod
    def _counts(store):
        histograms = store.metrics_snapshot()["histograms"]
        return {stage: histograms.get(
            'repro_store_recovery_stage_seconds{{stage="{}"}}'.format(
                stage), {}).get("count", 0)
            for stage in TestRecoveryStages.STAGES}

    def test_a_restart_times_each_stage_once(self, tmp_path):
        with DocumentStore(durability="log", wal_dir=str(tmp_path)) as store:
            # a fresh directory: nothing to restore or replay
            assert self._counts(store) == {
                "load": 1, "restore": 0, "replay": 0, "collect": 1}
            store.open("d", DOC)
            store.snapshot()
            store.submit_xquery("d", 'rename node /bib/paper as "p"')
            store.flush("d")
        with DocumentStore(durability="log", wal_dir=str(tmp_path)) as store:
            assert self._counts(store) == dict.fromkeys(self.STAGES, 1)
            assert store.recovery.replayed_batches == 1

    def test_a_store_without_a_log_has_no_restart(self):
        with DocumentStore() as store:
            assert self._counts(store) == dict.fromkeys(self.STAGES, 0)


@pytest.fixture(autouse=True)
def _collector_stays_on():
    yield
    assert gc.isenabled()
