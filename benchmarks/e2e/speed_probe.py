"""The speed probe's process: times a fixed pure-Python kernel on one
CPU every few milliseconds and appends ``<perf_counter> <kernel CPU
seconds>`` lines to a file until it is terminated (or its parent is
gone).

    python3 speed_probe.py CPU FILE

It is pinned to the CPU the program under test runs on and takes about
2% of it. ``time.perf_counter`` is the system-wide monotonic clock, so
the benchmark's own timestamps select the samples of any window.
"""

import os
import sys
import time

#: iterations of the kernel (~0.2 ms) and the pause between two runs
KERNEL_ITERATIONS = 4000
GAP_S = 0.010


def kernel(iterations=KERNEL_ITERATIONS):
    total = 0
    for index in range(iterations):
        total += index * index % 7
    return total


def main(argv):
    cpu, path = int(argv[1]), argv[2]
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    # line-buffered: the benchmark reads the file while we append
    with open(path, "a", buffering=1) as out:
        while os.getppid() == parent:
            at = time.perf_counter()
            # thread CPU time: being preempted by the program that
            # shares the CPU does not count
            start = time.thread_time()
            kernel()
            out.write("{:.6f} {:.9f}\n".format(
                at, time.thread_time() - start))
            time.sleep(GAP_S)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
