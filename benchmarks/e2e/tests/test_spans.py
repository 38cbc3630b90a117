"""Span parentage and self-time arithmetic."""

import pytest

from spans import Tracer, self_times


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "request", 0.0, 10.0, 7),
        (2, 1, "child", 1.0, 4.0, None),
        (3, 1, "child", 3.0, 6.0, None),     # overlaps span 2
        (4, 3, "leaf", 3.5, 4.5, None),
    ]
    totals = self_times(spans)
    # children cover [1, 6] of the request: 5 of its 10 seconds
    assert totals["request"]["self_s"] == pytest.approx(5.0)
    assert totals["request"]["total_s"] == pytest.approx(10.0)
    assert totals["child"]["count"] == 2
    # span 2 has no children (3 s), span 3 loses its leaf (3 - 1 s)
    assert totals["child"]["self_s"] == pytest.approx(5.0)
    assert totals["leaf"]["self_s"] == pytest.approx(1.0)


def test_children_are_clipped_to_their_parent():
    spans = [(1, None, "p", 2.0, 4.0, None),
             (2, 1, "c", 0.0, 3.0, None)]
    assert self_times(spans)["p"]["self_s"] == pytest.approx(1.0)


def test_tracer_records_parents_and_honours_the_switch():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    assert tracer.call("off", lambda: 5) == 5
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("outer", request="r1") as outer:
        assert tracer.call("inner", lambda value: value + 1, 1) == 2
    (inner_id, inner_parent, inner_name, *__), outer_span = tracer.spans
    assert inner_name == "inner" and inner_parent == outer
    assert outer_span[1] is None and outer_span[5] == "r1"
    assert outer_span[3] < tracer.spans[0][3] < tracer.spans[0][4] \
        < outer_span[4]
