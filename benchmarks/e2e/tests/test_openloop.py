"""The open-loop scheduler against a fake clock: operations are issued
at their due times and latencies are measured from them."""

import asyncio

import pytest

from openloop import OpenLoop


class FakeTime:
    def __init__(self, oversleep=0.0):
        self.now = 100.0
        self.oversleep = oversleep

    def clock(self):
        return self.now

    async def sleep(self, seconds):
        # like a real loop: tasks that are ready run first (and may
        # consume time); the sleeper wakes once its deadline has passed
        deadline = self.now + seconds
        await asyncio.sleep(0)
        self.now = max(self.now, deadline) + self.oversleep


def run_schedule(fake, rate, count, service):
    loop = OpenLoop(rate, count, clock=fake.clock, sleep=fake.sleep)
    issued, completed = [], []

    async def issue(index):
        issued.append((index, fake.now))
        fake.now += service(index)
        return index * 2

    def on_done(index, latency, outcome):
        completed.append((index, latency, outcome))

    asyncio.run(loop.run(issue, on_done))
    return loop, issued, completed


def test_operations_are_issued_at_their_due_times():
    fake = FakeTime()
    loop, issued, completed = run_schedule(
        fake, rate=10.0, count=5, service=lambda index: 0.0)
    assert [index for index, __ in issued] == [0, 1, 2, 3, 4]
    for index, at in issued:
        assert at == pytest.approx(100.0 + index / 10.0)
    assert loop.late_s == pytest.approx([0.0] * 5)
    assert [outcome for __, __l, outcome in completed] == [0, 2, 4, 6, 8]


def test_latency_counts_from_the_due_time_not_the_issue_time():
    # operation 0 stalls the (single-threaded fake) world for 0.35 s:
    # operations 1..3 were due during the stall and are issued late
    fake = FakeTime()
    loop, issued, completed = run_schedule(
        fake, rate=10.0, count=5,
        service=lambda index: 0.35 if index == 0 else 0.01)
    latency = {index: value for index, value, __ in completed}
    assert latency[0] == pytest.approx(0.35)
    # due at +0.1, issued at +0.35, served in 0.01: charged the wait
    assert latency[1] == pytest.approx(0.35 + 0.01 - 0.1)
    assert loop.late_s[1] == pytest.approx(0.25)
    assert loop.late_s[4] == pytest.approx(0.0)
    assert latency[4] == pytest.approx(0.01)


def test_generator_lateness_is_reported():
    fake = FakeTime(oversleep=0.002)
    loop, __, __c = run_schedule(
        fake, rate=100.0, count=4, service=lambda index: 0.0)
    assert loop.late_s[0] == 0.0
    assert all(late == pytest.approx(0.002) for late in loop.late_s[1:])
    assert loop.backlog_max >= 1
