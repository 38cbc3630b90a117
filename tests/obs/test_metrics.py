"""Metric primitives: bucket boundaries, concurrency, exposition."""

import threading

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    percentile_from_buckets,
    series_key,
)
from repro.store import DocumentStore

DOC = "<bib><paper><title>T1</title></paper></bib>"


class TestHistogramBuckets:
    def test_value_at_bound_lands_in_that_bucket(self):
        hist = Histogram(bounds=(1.0, 2.0, 5.0))
        hist.observe(1.0)      # bounds are inclusive upper bounds
        hist.observe(2.0)
        counts, total, count = hist.state()
        assert counts == [1, 1, 0, 0]
        assert count == 2
        assert total == pytest.approx(3.0)

    def test_value_just_above_bound_spills_to_next(self):
        hist = Histogram(bounds=(1.0, 2.0, 5.0))
        hist.observe(1.0000001)
        assert hist.state()[0] == [0, 1, 0, 0]

    def test_overflow_lands_in_the_inf_bucket(self):
        hist = Histogram(bounds=(1.0, 2.0, 5.0))
        hist.observe(100.0)
        assert hist.state()[0] == [0, 0, 0, 1]

    def test_zero_and_negative_land_in_the_first_bucket(self):
        hist = Histogram(bounds=(1.0, 2.0))
        hist.observe(0.0)
        hist.observe(-3.0)
        assert hist.state()[0] == [2, 0, 0]

    def test_state_returns_a_copy(self):
        hist = Histogram(bounds=(1.0,))
        first = hist.state()[0]
        hist.observe(0.5)
        assert first == [0, 0]

    def test_default_bounds_are_strictly_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestPercentiles:
    def test_empty_distribution_has_no_percentile(self):
        assert percentile_from_buckets((1.0, 2.0), [0, 0, 0],
                                       0.5) is None

    def test_interpolates_inside_the_winning_bucket(self):
        # 10 observations spread over (0, 1]: rank 5 of 10 -> 0.5
        value = percentile_from_buckets((1.0, 2.0), [10, 0, 0], 0.5)
        assert value == pytest.approx(0.5)

    def test_inf_bucket_reports_the_last_finite_bound(self):
        assert percentile_from_buckets((1.0, 2.0), [0, 0, 4],
                                       0.99) == 2.0

    def test_quantiles_are_monotone(self):
        counts = [3, 5, 2, 0, 1]
        bounds = (0.1, 0.5, 1.0, 2.0)
        values = [percentile_from_buckets(bounds, counts, quantile)
                  for quantile in (0.1, 0.5, 0.9, 0.99)]
        assert values == sorted(values)


class TestCountersAndGauges:
    def test_concurrent_increments_are_lossless(self):
        counter = Counter()

        def spin():
            for __ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=spin) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 80_000

    def test_series_key_sorts_labels(self):
        assert series_key("m", {"b": "2", "a": "1"}) \
            == 'm{a="1",b="2"}'
        assert series_key("m", {}) == "m"


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")
        assert registry.histogram("h_seconds", stage="apply") \
            is registry.histogram("h_seconds", stage="apply")
        assert registry.histogram("h_seconds", stage="apply") \
            is not registry.histogram("h_seconds", stage="log")

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m_total")
        with pytest.raises(ValueError):
            registry.gauge("m_total")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c_total": 2}
        assert snap["gauges"] == {"g": 7}
        assert snap["histograms"]["h_seconds"] == {
            "buckets": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}

    def test_render_text_is_cumulative_and_merges_labels(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "things counted").inc(3)
        hist = registry.histogram("h_seconds", buckets=(1.0, 2.0),
                                  stage="apply")
        for value in (0.5, 1.5, 9.0):
            hist.observe(value)
        lines = registry.render_text().splitlines()
        assert "# HELP c_total things counted" in lines
        assert "# TYPE c_total counter" in lines
        assert "c_total 3" in lines
        assert 'h_seconds_bucket{stage="apply",le="1.0"} 1' in lines
        assert 'h_seconds_bucket{stage="apply",le="2.0"} 2' in lines
        assert 'h_seconds_bucket{stage="apply",le="+Inf"} 3' in lines
        assert 'h_seconds_sum{stage="apply"} 11' in lines
        assert 'h_seconds_count{stage="apply"} 3' in lines

    def test_null_registry_is_inert(self):
        registry = NullRegistry()
        metric = registry.counter("c_total")
        metric.inc()
        metric.observe(1.0)
        metric.set(5)
        assert registry.snapshot() == {"counters": {}, "gauges": {},
                                       "histograms": {}}
        assert registry.render_text() == ""


class TestStoreInstrumentation:
    def test_counters_stay_monotone_under_concurrent_flushes(self):
        store = DocumentStore()
        try:
            doc_ids = ["d{}".format(index) for index in range(4)]
            for doc_id in doc_ids:
                store.open(doc_id, DOC)
            observed = []

            def sample():
                # interleaved scrapes must never see a counter go down
                for __ in range(200):
                    snap = store.metrics_snapshot()
                    observed.append(
                        (snap["counters"]["repro_store_submits_total"],
                         snap["counters"]["repro_store_flushes_total"]))

            def work(doc_id):
                for __ in range(5):
                    store.submit_xquery(
                        doc_id, "insert node <x/> as last into /bib")
                    store.flush(doc_id)

            threads = [threading.Thread(target=work, args=(doc_id,))
                       for doc_id in doc_ids]
            threads.append(threading.Thread(target=sample))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert observed == sorted(observed)
            snap = store.metrics_snapshot()
            assert snap["counters"]["repro_store_submits_total"] == 20
            assert snap["counters"]["repro_store_flushes_total"] == 20
            assert snap["counters"]["repro_store_flush_failures_total"] \
                == 0
            assert snap["gauges"]["repro_store_pending_submissions"] == 0
            flush_latency = snap["histograms"][
                'repro_store_op_latency_seconds{op="flush"}']
            assert flush_latency["count"] == 20
        finally:
            store.close()

    def test_metrics_off_store_reports_disabled(self):
        store = DocumentStore(metrics=False)
        try:
            store.open("d1", DOC)
            store.flush("d1")
            snap = store.metrics_snapshot()
            assert snap["metrics_enabled"] is False
            assert snap["counters"] == {}
            assert snap["uptime_seconds"] >= 0
            # the exposition still carries uptime, nothing else
            assert store.metrics_text().startswith(
                "# TYPE repro_uptime_seconds gauge")
        finally:
            store.close()

    def test_planner_route_counters_move(self):
        store = DocumentStore()
        try:
            store.open("d1", DOC)
            store.query("d1", "/bib/paper/title")
            snap = store.metrics_snapshot()
            routes = {mode: snap["counters"][
                'repro_planner_route_total{{mode="{}"}}'.format(mode)]
                for mode in ("indexed", "mixed", "walker")}
            assert sum(routes.values()) == 1
        finally:
            store.close()
