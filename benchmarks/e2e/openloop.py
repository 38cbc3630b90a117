"""Open-loop load: operations are issued on a fixed schedule whether
or not earlier ones have completed, and every latency is measured from
the operation's *due* time — a stall therefore charges the wait to
every request it delayed, as independent users would experience it.
"""

import asyncio
import time


async def precise_sleep(seconds):
    """Sleep in a worker thread. ``asyncio.sleep`` rounds every timeout
    up to whole milliseconds (the selector's resolution), which made
    operations late by up to 1 ms in a pattern locked to the phase of
    the previous response; a thread's ``time.sleep`` is good to a tenth
    of that and wakes the loop through its self-pipe."""
    await asyncio.get_running_loop().run_in_executor(
        None, time.sleep, seconds)


class OpenLoop:
    """Issue ``count`` operations ``1/rate`` seconds apart.

    ``issue(index)`` is an async callable performing operation
    ``index``; it is started as a task at (or, if the generator is
    late, right after) its due time. ``clock`` and ``sleep`` are
    injectable so the schedule can be tested against a fake clock.
    """

    def __init__(self, rate, count, clock=time.perf_counter,
                 sleep=precise_sleep):
        self.rate = rate
        self.count = count
        self._clock = clock
        self._sleep = sleep
        self.start = None
        self.late_s = []         # issue time minus due time, per op
        self.latency_s = [None] * count   # completion minus due time
        self.backlog_max = 0
        self._inflight = 0

    def due(self, index):
        return self.start + index / self.rate

    async def _perform(self, index, issue, on_done):
        try:
            outcome = await issue(index)
        finally:
            self._inflight -= 1
        self.latency_s[index] = self._clock() - self.due(index)
        on_done(index, self.latency_s[index], outcome)

    async def run(self, issue, on_done, on_start=None):
        """Run the whole schedule; returns when every operation has
        completed. ``on_done(index, latency_s, outcome)`` is called per
        completion, in completion order; ``on_start()`` right after
        the schedule's origin is fixed."""
        self.start = self._clock()
        if on_start is not None:
            on_start()
        tasks = []
        for index in range(self.count):
            wait = self.due(index) - self._clock()
            if wait > 0:
                await self._sleep(wait)
            self.late_s.append(max(0.0, self._clock() - self.due(index)))
            self._inflight += 1
            self.backlog_max = max(self.backlog_max, self._inflight)
            tasks.append(asyncio.ensure_future(
                self._perform(index, issue, on_done)))
        await asyncio.gather(*tasks)
