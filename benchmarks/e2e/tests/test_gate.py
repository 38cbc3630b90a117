"""A planted wrong answer trips the correctness gate."""

import config
import gen
import harness
import wire
import wl_reasoning
from repro.pul.serialize import pul_from_xml
from repro.reduction import reduce_pul

SMALL = config.DEFAULT_SECONDS * config.SMOKE_SHARE

DOC = "<site><a><needle>n0</needle></a><a><b>x</b></a></site>"


def test_read_oracle_accepts_right_and_rejects_wrong_answers():
    right = harness.Result()
    wire.check_reads({"d": DOC}, [
        ("selective", "d", "//needle", ["<needle>n0</needle>"]),
        ("text", "d", None, DOC)], right)
    assert right.correct
    wrong = harness.Result()
    wire.check_reads({"d": DOC}, [
        ("selective", "d", "//needle", ["<needle>n1</needle>"]),
        ("text", "d", None, DOC.replace("x", "y"))], wrong)
    assert len(wrong.mismatches) == 2 and not wrong.correct


def test_reasoning_oracle_rejects_a_tampered_reduction():
    inputs, __, __g = gen.load_inputs("reasoning_batch", 5, SMALL,
                                      use_cache=False)
    index = next(i for i, job in enumerate(inputs["pool"])
                 if job["family"] == "reduce")
    original = pul_from_xml(inputs["pool"][index]["puls"][0])
    reduced = reduce_pul(original)
    good = harness.Result()
    wl_reasoning.verify(inputs, {index: (reduced, "", None)}, good)
    assert good.correct
    # drop one surviving operation: no longer equivalent to the input
    tampered = reduced.replace_operations(list(reduced)[1:])
    bad = harness.Result()
    wl_reasoning.verify(inputs, {index: (tampered, "", None)}, bad)
    assert bad.mismatches and not bad.correct


def test_a_failed_operation_makes_the_run_incorrect():
    result = harness.Result()
    result.attempted = 10
    assert result.correct
    result.failed = 1
    assert not result.correct


def test_unkept_schedule_is_repeated_then_reported(tmp_path, monkeypatch,
                                                   capsys):
    import wl_mixed
    from spans import Tracer

    # no generator is ever less than 0 ms late: every attempt is late
    monkeypatch.setitem(config.MIXED, "late_limit_ms", 0.0)
    monkeypatch.setitem(config.MIXED, "attempts", 2)
    inputs, __, __g = gen.load_inputs("open_mixed", 5, SMALL,
                                      use_cache=False)
    options = harness.Options("open_mixed", 5, SMALL, trace=False,
                              smoke=True, out_dir=str(tmp_path))
    try:
        options.start_probe()
        result = wl_mixed.run(inputs, options, Tracer())
    finally:
        options.cleanup()
    # a stalled host is no wrong answer: the last attempt is reported
    assert result.correct and result.failed == 0
    assert "NOT KEPT" in result.notes["bench.schedule"]
    assert "2 attempts" in result.notes["bench.schedule"]
    assert "attempt 2" in result.notes["bench.late_ms_p99"]
    assert "NOT KEPT" in capsys.readouterr().err
