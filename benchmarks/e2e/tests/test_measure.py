"""Percentiles, slices and the slice-median recorder on known arrays."""

import os

import pytest

import measure


def test_percentile_interpolates_between_ranks():
    values = [10, 20, 30, 40, 50]
    assert measure.percentile(values, 0) == 10
    assert measure.percentile(values, 50) == 30
    assert measure.percentile(values, 100) == 50
    assert measure.percentile(values, 90) == pytest.approx(46.0)
    assert measure.percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_slice_bounds_cover_the_range_evenly():
    assert measure.slice_bounds(10, 5) == [
        (0, 2), (2, 4), (4, 6), (6, 8), (8, 10)]
    bounds = measure.slice_bounds(13, 5)
    assert bounds[0][0] == 0 and bounds[-1][1] == 13
    sizes = [end - start for start, end in bounds]
    assert max(sizes) - min(sizes) <= 1
    with pytest.raises(ValueError):
        measure.slice_bounds(3, 5)


def test_slice_median_ignores_one_disturbed_slice():
    assert measure.slice_median([100, 101, 99, 100, 5]) == 100


class FakeClocks:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0


def filled_recorder():
    """10 requests in 5 slices of 2 blocks of 1 request."""
    clocks = FakeClocks()
    switched = []
    recorder = measure.SliceRecorder(
        10, cpu=lambda: clocks.cpu, slices=5, blocks=10,
        clock=lambda: clocks.wall, on_block=switched.append)
    recorder.begin()
    # every slice of 2 requests takes 1 s except slice 2: a 10 s stall;
    # a request in an even block takes 0.6 s, in an odd block 0.4 s
    for index in range(10):
        stalled = index // 2 == 2
        traced = index % 2 == 0
        clocks.wall += 5.0 if stalled else (0.6 if traced else 0.4)
        clocks.cpu += 0.25
        recorder.done(0.9 if stalled else (0.12 if traced else 0.10),
                      kind="x", ops=3)
    return recorder, switched


def test_recorder_reports_the_median_of_per_slice_values():
    recorder, switched = filled_recorder()
    assert recorder.complete
    summary = recorder.summary()
    assert summary["per_slice"]["ops_per_s"] == pytest.approx(
        [6.0, 6.0, 0.6, 6.0, 6.0])
    raw = summary["raw"]
    assert raw["ops_per_s"] == pytest.approx(6.0)
    assert raw["p50_ms"] == pytest.approx(110.0)
    assert raw["p90_ms"] == pytest.approx(118.0)
    # 0.5 CPU seconds per slice of 6 operations
    assert raw["cpu_ms_per_op"] == pytest.approx(500.0 / 6)
    assert summary["rescaled"] == pytest.approx(raw)   # no probe given
    assert switched == list(range(11))
    assert recorder.by_kind("x") == recorder.latencies


def test_recorder_rescales_each_slice_by_its_speed_factor():
    # the CPU ran at half speed (factor 2) during the whole phase
    recorder, __ = filled_recorder()
    summary = recorder.summary(lambda start, end: 2.0)
    assert summary["rescaled"]["ops_per_s"] == pytest.approx(12.0)
    assert summary["rescaled"]["p50_ms"] == pytest.approx(55.0)
    assert summary["rescaled"]["cpu_ms_per_op"] == pytest.approx(250.0 / 6)
    assert summary["raw"]["p50_ms"] == pytest.approx(110.0)
    assert summary["per_slice"]["speed_factor"] == [2.0] * 5
    # an open loop's rate is the schedule's
    fixed = recorder.summary(lambda start, end: 2.0, fixed_rate=True)
    assert fixed["rescaled"]["ops_per_s"] == pytest.approx(6.0)
    assert fixed["rescaled"]["p50_ms"] == pytest.approx(55.0)
    # half trust applies the square root of the factor
    half = recorder.summary(lambda start, end: 4.0, fixed_rate=True,
                            trust=0.5)
    assert half["rescaled"]["p50_ms"] == pytest.approx(55.0)
    assert half["per_slice"]["speed_factor"] == [4.0] * 5


def test_speed_factor_is_the_window_median_over_the_reference():
    reference = measure.REFERENCE_KERNEL_S
    samples = [(0.00, reference), (0.02, 2 * reference),
               (0.04, 2 * reference), (0.06, 5 * reference)]
    assert measure.speed_factor(samples, 0.0, 0.1) == pytest.approx(2.0)
    assert measure.speed_factor(samples, 0.03, 0.05) == pytest.approx(2.0)
    # an empty window falls back to the closest sample
    assert measure.speed_factor(samples, 0.061, 0.062) == pytest.approx(5.0)
    with pytest.raises(RuntimeError):
        measure.speed_factor([], 0.0, 1.0)


def test_speed_probe_samples_until_it_is_stopped(tmp_path):
    import time
    probe = measure.SpeedProbe(str(tmp_path / "samples"), cpu=None)
    try:
        start = time.perf_counter()
        time.sleep(0.3)
        factor = probe.factor(start, time.perf_counter())
    finally:
        probe.stop()
    assert 0.1 < factor < 10.0
    assert probe._process.poll() is not None


def test_trace_overhead_compares_even_and_odd_blocks():
    clocks = FakeClocks()
    recorder = measure.SliceRecorder(
        20, cpu=lambda: 0.0, slices=5, blocks=10,
        clock=lambda: clocks.wall)
    recorder.begin()
    for index in range(20):
        traced = (index // 2) % 2 == 0
        clocks.wall += 0.6 if traced else 0.5
        recorder.done(0.12 if traced else 0.10)
    # untraced blocks run 2 ops/s, traced ones 1/0.6
    assert recorder.trace_overhead() == pytest.approx(1.2)
    assert recorder.trace_overhead("latency") == pytest.approx(1.2)


def test_blocks_must_divide_into_slices():
    with pytest.raises(ValueError):
        measure.SliceRecorder(100, cpu=lambda: 0.0, slices=5, blocks=12)


def test_recorder_refuses_an_incomplete_phase():
    recorder = measure.SliceRecorder(10, cpu=lambda: 0.0, slices=5,
                                     blocks=10)
    recorder.begin()
    recorder.done(0.1)
    with pytest.raises(RuntimeError):
        recorder.summary()


def test_split_cpus_gives_the_program_a_cpu_of_its_own():
    generator, program = measure.split_cpus()
    if program is None:
        pytest.skip("no affinity calls on this platform")
    assert program == max(os.sched_getaffinity(0))
    assert generator and (program not in generator
                          or generator == {program})
