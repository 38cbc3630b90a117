"""Sample arithmetic and process readers shared by every workload.

The timed phase is cut into ``BLOCKS`` consecutive blocks of equal
operation count; ``SLICES`` consecutive slices of ``BLOCKS / SLICES``
blocks each carry the reported figures: every timing metric is the
*median of the per-slice values*, so a disturbed slice (a noisy
neighbour, a page-cache writeback, a compaction) cannot move a result.
The blocks are what the traced run alternates its tracer on: even
blocks are traced, odd ones are not, and comparing the two halves of
one run gives the tracing overhead without a second run.

Every timing is computed twice: as measured, and rescaled by the
:class:`SpeedProbe` to the speed at which its kernel takes
``REFERENCE_KERNEL_S``. The rescaled figure is the reported one (the
open loop's timed phase, where the program sleeps between requests,
applies half the factor: ``trust``); REPEATABILITY.md compares the two
over the same runs.
"""

import os
import statistics
import subprocess
import sys
import threading
import time

#: consecutive equal slices of the timed phase
SLICES = 5
#: consecutive equal blocks of the timed phase (a multiple of SLICES;
#: few enough that a block of the smoke run still holds several jobs of
#: every kind)
BLOCKS = 20

#: CPU seconds the probe's kernel takes on the reference box when the
#: CPU is busy; it only fixes the scale of the rescaled figures
REFERENCE_KERNEL_S = 0.00022

_TICK = os.sysconf("SC_CLK_TCK")
_PROBE_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "speed_probe.py")


def split_cpus():
    """``(generator CPUs, program CPU)``: the program under test (the
    in-process workload or the server subprocess) gets the
    highest-numbered CPU this process may use, the load generator the
    others, so neither takes time from the other. With one CPU they
    share it. ``(None, None)`` where the platform has no affinity
    calls."""
    if not hasattr(os, "sched_setaffinity"):
        return None, None
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[:-1] or cpus), cpus[-1]


def pin(pid, cpus):
    """Pin process ``pid`` (0: this one) to ``cpus``; no-op for
    ``None``."""
    if cpus is not None:
        os.sched_setaffinity(pid, cpus)


class SpeedProbe:
    """Samples the speed of the CPU the program under test runs on.

    A subprocess (``speed_probe.py``) pinned to ``cpu`` times a fixed
    pure-Python kernel every 10 ms (thread CPU time, ~2% of the CPU)
    and appends the samples to ``path``. ``factor(start, end)`` is the
    median sample of that ``time.perf_counter`` window (the closest
    sample, for a window shorter than the gap) over the reference
    time: above 1 when the CPU ran slow. On the shared box this
    benchmark was sized on a vCPU's speed wanders by a quarter from one
    second to the next and drifts for minutes, so raw timings of
    identical runs spread two to three times further than rescaled
    ones (README, *Noise controls*).
    """

    def __init__(self, path, cpu):
        self._path = path
        self._offset = 0
        self._samples = []       # (perf_counter, kernel CPU seconds)
        self._process = subprocess.Popen(
            [sys.executable, _PROBE_SCRIPT,
             str(-1 if cpu is None else cpu), path])

    def _read(self):
        try:
            with open(self._path) as handle:
                handle.seek(self._offset)
                data = handle.read()
        except FileNotFoundError:
            return
        # a line still being written stays for the next read
        complete = data.rfind("\n") + 1
        self._offset += complete
        for line in data[:complete].splitlines():
            at, cost = line.split()
            self._samples.append((float(at), float(cost)))

    def factor(self, start, end):
        self._read()
        return speed_factor(self._samples, start, end)

    def stop(self):
        """Terminate the subprocess and wait until it has ended."""
        self._process.terminate()
        self._process.wait()


def speed_factor(samples, start, end):
    """Median kernel time of the ``samples`` inside ``[start, end]``
    over the reference time."""
    if not samples:
        raise RuntimeError("the speed probe took no sample")
    window = [cost for at, cost in samples if start <= at <= end]
    if not window:
        middle = (start + end) / 2.0
        window = [min(samples,
                      key=lambda sample: abs(sample[0] - middle))[1]]
    return statistics.median(window) / REFERENCE_KERNEL_S


def percentile(values, q):
    """The ``q``-th percentile (0..100) of ``values`` with linear
    interpolation between closest ranks (numpy's default)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def slice_bounds(total, slices=SLICES):
    """``[(start, end), ...]``: ``slices`` consecutive index ranges
    covering ``range(total)``, sizes differing by at most one."""
    if total < slices:
        raise ValueError(
            "{} samples cannot fill {} slices".format(total, slices))
    edges = [total * i // slices for i in range(slices + 1)]
    return list(zip(edges[:-1], edges[1:]))


def slice_median(per_slice):
    """Median of the per-slice values (the reported figure)."""
    return statistics.median(per_slice)


def proc_cpu_s(pid):
    """CPU seconds of process ``pid`` from ``/proc``: the nanosecond
    run times of its threads (``schedstat``) where the kernel keeps
    them, else the 10 ms ticks of ``stat``."""
    task_dir = "/proc/{}/task".format(pid)
    try:
        total = 0
        for task in os.listdir(task_dir):
            with open("{}/{}/schedstat".format(task_dir, task)) as handle:
                total += int(handle.read().split()[0])
        if total:
            return total / 1e9
    except (OSError, ValueError, IndexError):
        pass
    with open("/proc/{}/stat".format(pid)) as handle:
        # the command name may contain spaces; fields restart after ')'
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mb(pid="self"):
    """Peak resident set (``VmHWM``) of ``pid`` in MiB."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid {}".format(pid))


class SliceRecorder:
    """Collects one ``(latency, kind)`` sample per completed request
    and reads the wall and CPU clocks whenever a block fills up.

    Thread-safe; ``cpu`` is a zero-argument callable returning the CPU
    seconds of the process hosting the program. ``begin()`` starts the
    timed phase, ``done()`` is called once per completed request in
    completion order; ``ops`` is how many operations the request
    covered (``reasoning_batch``: one job is many PUL operations).
    ``on_block(index)`` is called when block ``index`` is about to
    start (the traced run switches its tracer there).
    """

    def __init__(self, total, cpu, slices=SLICES, blocks=BLOCKS,
                 clock=time.perf_counter, on_block=None):
        if blocks % slices:
            raise ValueError("blocks must be a multiple of slices")
        self._edges = [end for __, end in slice_bounds(total, blocks)]
        self._per_slice = blocks // slices
        self._cpu = cpu
        self._clock = clock
        self._lock = threading.Lock()
        self._on_block = on_block or (lambda index: None)
        self.total = total
        self.latencies = []
        self.kinds = []
        self.ops = 0
        # (wall, cpu, ops) at the start and at every block end
        self.marks = []

    def begin(self):
        self._on_block(0)
        self.marks.append((self._clock(), self._cpu(), 0))

    def done(self, latency_s, kind=None, ops=1):
        with self._lock:
            self.latencies.append(latency_s)
            self.kinds.append(kind)
            self.ops += ops
            if len(self.latencies) == self._edges[len(self.marks) - 1]:
                self.marks.append((self._clock(), self._cpu(), self.ops))
                self._on_block(len(self.marks) - 1)

    @property
    def complete(self):
        return len(self.marks) == len(self._edges) + 1

    def elapsed_s(self):
        return self.marks[-1][0] - self.marks[0][0]

    def summary(self, factor=lambda start, end: 1.0, fixed_rate=False,
                trust=1.0):
        """The slice-median timing metrics, ``{"raw": {...},
        "rescaled": {...}, "per_slice": {...}}``. ``factor(start,
        end)`` is the speed factor of a wall-clock window (a slow CPU
        lengthens times and lowers rates; ``fixed_rate``: an open
        loop's rate is the schedule's, not the CPU's). ``trust`` is the
        exponent the factor is applied with: 1 rescales in full, 0.5
        shrinks the factor halfway (geometrically) towards 1, for a
        phase in which the probe's reading is half noise. ``per_slice``
        holds the measured values and each slice's factor."""
        if not self.complete:
            raise RuntimeError(
                "timed phase incomplete: {} of {} operations".format(
                    len(self.latencies), self.total))
        names = ("ops_per_s", "p50_ms", "p90_ms", "cpu_ms_per_op")
        raw = {name: [] for name in names}
        rescaled = {name: [] for name in names}
        factors = []
        step = self._per_slice
        start = 0
        for first in range(0, len(self._edges), step):
            (w0, c0, n0), (w1, c1, n1) = (self.marks[first],
                                          self.marks[first + step])
            end = self._edges[first + step - 1]
            chunk = self.latencies[start:end]
            ops = n1 - n0
            speed = factor(w0, w1)
            factors.append(speed)
            speed **= trust
            values = {"ops_per_s": ops / (w1 - w0),
                      "p50_ms": percentile(chunk, 50) * 1e3,
                      "p90_ms": percentile(chunk, 90) * 1e3,
                      "cpu_ms_per_op": (c1 - c0) * 1e3 / ops}
            for name, value in values.items():
                raw[name].append(value)
                if name != "ops_per_s":
                    value /= speed
                elif not fixed_rate:
                    value *= speed
                rescaled[name].append(value)
            start = end
        return {
            "raw": {name: slice_median(raw[name]) for name in names},
            "rescaled": {name: slice_median(rescaled[name])
                         for name in names},
            "per_slice": dict(raw, speed_factor=factors),
        }

    def trace_overhead(self, by="rate"):
        """Even blocks ran traced, odd ones untraced: how much slower
        the traced ones were. ``by="rate"``: untraced over traced
        operations per second; ``by="latency"`` (the open loop, whose
        rate the schedule fixes): traced over untraced median
        latency."""
        traced, untraced = [0.0, 0.0, []], [0.0, 0.0, []]
        start = 0
        for index, end in enumerate(self._edges):
            (w0, __, n0), (w1, __c, n1) = self.marks[index:index + 2]
            side = traced if index % 2 == 0 else untraced
            side[0] += n1 - n0
            side[1] += w1 - w0
            side[2].extend(self.latencies[start:end])
            start = end
        if by == "rate":
            return (untraced[0] / untraced[1]) / (traced[0] / traced[1])
        return statistics.median(traced[2]) / statistics.median(untraced[2])

    def by_kind(self, kind):
        return [latency for latency, k in zip(self.latencies, self.kinds)
                if k == kind]
