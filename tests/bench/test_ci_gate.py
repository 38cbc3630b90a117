"""The benchmark-regression gate's comparison logic.

The gate compares absolute ops/sec committed from one machine against a
run on another, so the unit under test is the machine-relative scaling:
a slower runner must not fail the gate on hardware alone, and a real
regression must still fail it after rescaling. The bench subprocesses
themselves are exercised by the CI bench job, not here.
"""

import importlib.util
import os

_GATE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "benchmarks", "ci_gate.py")

_spec = importlib.util.spec_from_file_location("ci_gate", _GATE_PATH)
ci_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_gate)


class TestSelectBaseline:
    def test_picks_newest_strictly_earlier(self):
        assert ci_gate.select_baseline({1: "a", 3: "c", 4: "d"}, 4) == 3

    def test_never_picks_own_file(self):
        assert ci_gate.select_baseline({3: "c"}, 3) is None

    def test_empty_history(self):
        assert ci_gate.select_baseline({}, 1) is None


class TestDefaultPr:
    def test_one_past_newest_committed(self):
        assert ci_gate.default_pr({1: "a", 3: "c"}) == 4

    def test_empty_history_starts_at_one(self):
        assert ci_gate.default_pr({}) == 1

    def test_default_run_gates_against_newest_committed(self):
        # the no-flag CI run: a PR committing no new trajectory file
        # must still be gated (against the newest committed file), not
        # pass trivially via the strictly-earlier rule
        committed = {3: "BENCH_3.json"}
        pr = ci_gate.default_pr(committed)
        assert ci_gate.select_baseline(committed, pr) == 3


class TestCompare:
    CURRENT = {"bench": {"ops_per_sec": 500.0}}
    PREVIOUS = {"bench": {"ops_per_sec": 1000.0}}

    def test_raw_comparison_fails_on_drop(self):
        assert ci_gate.compare(self.CURRENT, self.PREVIOUS, 0.30)

    def test_slower_machine_passes_after_rescaling(self):
        # the baseline machine was twice as fast: 500 ops/s here is the
        # same code speed as the committed 1000 ops/s
        assert not ci_gate.compare(self.CURRENT, self.PREVIOUS, 0.30,
                                   scale=0.5)

    def test_real_regression_fails_despite_rescaling(self):
        current = {"bench": {"ops_per_sec": 100.0}}
        assert ci_gate.compare(current, self.PREVIOUS, 0.30, scale=0.5)

    def test_faster_machine_does_not_mask_regression(self):
        # a 2x faster runner raises the floor: matching the committed
        # absolute number now counts as a ~2x code slowdown
        assert ci_gate.compare(self.CURRENT, self.PREVIOUS, 0.30,
                               scale=2.0)
        assert not ci_gate.compare(
            {"bench": {"ops_per_sec": 1500.0}}, self.PREVIOUS, 0.30,
            scale=2.0)

    def test_missing_or_malformed_entries_are_skipped(self):
        current = {"bench": {"median_wall_s": 0.1}, "other": {}}
        assert not ci_gate.compare(current, self.PREVIOUS, 0.30)

    def test_bench_retired_since_the_baseline_is_skipped(self):
        # a committed trajectory keeps the numbers of benches deleted
        # after it (BENCH_10.json: bench_wire_codec); they gate nothing
        previous = {"bench": {"ops_per_sec": 500.0},
                    "bench_wire_codec": {"ops_per_sec": 9e9}}
        assert not ci_gate.compare(self.CURRENT, previous, 0.30)

    def test_the_committed_baseline_gates_only_benches_that_still_run(
            self):
        import json
        path = ci_gate.committed_trajectories()[10]
        with open(path, "r", encoding="utf-8") as handle:
            previous = json.load(handle)["benches"]
        smoke_names = {script.replace(".py", "")
                       for script, __ in ci_gate.SMOKE_RUNS}
        assert {"bench_wire_codec", "bench_pipeline_scaling"} <= \
            set(previous) - smoke_names
        current = {name: previous[name]
                   for name in set(previous) & smoke_names}
        assert current and not ci_gate.compare(current, previous, 0.30)

    def test_io_bound_bench_floor_is_never_raised_by_fast_cpu(self):
        # fast CPU, slow disk: the CPU ratio must not raise the
        # fsync-bound bench's floor above its committed number
        name = next(iter(ci_gate.IO_BOUND_BENCHES))
        current = {name: {"ops_per_sec": 800.0}}
        previous = {name: {"ops_per_sec": 1000.0}}
        assert not ci_gate.compare(current, previous, 0.30, scale=3.0)
        # the slow-machine direction still scales the floor down
        assert not ci_gate.compare(
            {name: {"ops_per_sec": 400.0}}, previous, 0.30, scale=0.5)
        assert ci_gate.compare(
            {name: {"ops_per_sec": 300.0}}, previous, 0.30, scale=0.5)


class TestCheckFloors:
    FLOORS = {"bench": {"speedup": 1.3}}

    def test_metric_above_floor_passes(self):
        current = {"bench": {"speedup": 1.5}}
        assert not ci_gate.check_floors(current, self.FLOORS)

    def test_metric_below_floor_fails(self):
        current = {"bench": {"speedup": 1.1}}
        assert ci_gate.check_floors(current, self.FLOORS)

    def test_missing_metric_fails_loudly(self):
        # a bench that ran but stopped reporting the gated metric must
        # not pass silently
        assert ci_gate.check_floors({"bench": {}}, self.FLOORS)

    def test_bench_absent_from_run_is_skipped(self):
        # floors gate metrics of benches that ran; a partial local run
        # (e.g. --out with a bench subset) is not a failure
        assert not ci_gate.check_floors({}, self.FLOORS)

    def test_registered_floors_name_real_benches(self):
        smoke_names = {script.replace(".py", "")
                       for script, __ in ci_gate.SMOKE_RUNS}
        assert set(ci_gate.METRIC_FLOORS) <= smoke_names


class TestCommittedTrajectories:
    def test_untracked_output_is_not_a_baseline(self, tmp_path):
        # a previous local gate run leaves an untracked BENCH file in
        # the repo root; it is output, not committed history
        stray = os.path.join(ci_gate.REPO_ROOT, "BENCH_999.json")
        with open(stray, "w", encoding="utf-8") as handle:
            handle.write("{}")
        try:
            found = ci_gate.committed_trajectories()
        finally:
            os.unlink(stray)
        assert 999 not in found
        assert 3 in found  # this repo's committed trajectory

    def test_glob_fallback_outside_git(self, tmp_path, monkeypatch):
        (tmp_path / "BENCH_7.json").write_text("{}")
        (tmp_path / "BENCH_nope.json").write_text("{}")
        monkeypatch.setattr(ci_gate, "REPO_ROOT", str(tmp_path))

        def no_git(*args, **kwargs):
            raise OSError("git not available")

        monkeypatch.setattr(ci_gate.subprocess, "run", no_git)
        found = ci_gate.committed_trajectories()
        assert found == {7: str(tmp_path / "BENCH_7.json")}


class TestCalibration:
    def test_score_is_positive_and_repeatable_in_order_of_magnitude(self):
        first = ci_gate.machine_calibration(rounds=3, passes=2)
        second = ci_gate.machine_calibration(rounds=3, passes=2)
        assert first > 0 and second > 0
        # best-of timing on the same machine stays well inside the
        # gate's ±30% tolerance band
        assert 0.5 < first / second < 2.0
