"""End-to-end benchmark: generate one workload's load from a seed, run
it, check every output against the oracle, print every metric.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--smoke]

Without ``--trace`` the run reports the end-to-end metrics; with it the
same workload and seed run with spans around every call the driver
makes, followed by the layer replay, and the per-layer metrics are
reported instead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
only when every output was correct.
"""

import argparse
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

WORKLOAD_MODULES = {
    "reasoning_batch": "wl_reasoning",
    "durable_writes": "wl_durable",
    "indexed_reads": "wl_reads",
    "open_mixed": "wl_mixed",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase on the "
                             "reference box (sets the operation counts)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="run at 1/20 size (CI)")
    return parser.parse_args(argv)


def report(result, names, workload, sha, out=sys.stdout):
    """Print the metric table and, last, the JSON result line."""
    out.write("workload {}  inputs sha256 {}\n".format(workload, sha))
    for name in names:
        value, unit = result.metrics[name]
        note = result.notes.get(name)
        out.write("  {:<38} {:>16.6f} {:<6}{}\n".format(
            name, value, unit, "  ({})".format(note) if note else ""))
    for name, note in sorted(result.notes.items()):
        if name not in result.metrics:
            out.write("  {}: {}\n".format(name, note))
    out.write("  attempted {}  failed {}\n".format(
        result.attempted, result.failed))
    # both figures of every timing, for repeat.py's comparison
    out.write("timings {}\n".format(json.dumps(result.timings)))
    for line in result.mismatches[:20]:
        out.write("  MISMATCH {}\n".format(line))
    out.write(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name][0],
                           "unit": result.metrics[name][1]}
                    for name in names},
    }) + "\n")
    out.flush()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(REPO_SRC, "repro")):
        sys.stderr.write(
            "error: no program to measure: {} is missing\n".format(
                os.path.join(REPO_SRC, "repro")))
        return 2
    for path in (REPO_SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)

    import config
    import gen
    import harness
    import measure
    from spans import Tracer

    module = importlib.import_module(WORKLOAD_MODULES[args.workload])
    # the program under test gets a CPU of its own: an in-process
    # workload is the program, a served one pins its server there and
    # generates load from the other CPUs
    generator_cpus, program_cpu = measure.split_cpus()
    measure.pin(0, {program_cpu} if module.IN_PROCESS and
                program_cpu is not None else generator_cpus)

    seed = config.DEFAULT_SEED if args.seed is None else args.seed
    seconds = (config.DEFAULT_SECONDS if args.seconds is None
               else args.seconds)
    if seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    if args.smoke:
        seconds *= config.SMOKE_SHARE
    options = harness.Options(args.workload, seed, seconds,
                              bool(args.trace), args.smoke, gen.OUT_DIR,
                              program_cpu=program_cpu)
    try:
        inputs, sha, gen_s = gen.load_inputs(args.workload, seed, seconds)
    except gen.PinMismatch as error:
        sys.stderr.write("error: {}\n".format(error))
        return 3
    tracer = Tracer()
    try:
        options.start_probe()
        result = module.run(inputs, options, tracer)
    finally:
        options.cleanup()
    if args.trace:
        os.makedirs(gen.OUT_DIR, exist_ok=True)
        tracer.dump(
            os.path.join(gen.OUT_DIR,
                         "trace_{}.json".format(args.workload)),
            meta={"workload": args.workload, "seed": seed,
                  "seconds": seconds, "inputs_sha256": sha})
        result.put("bench.gen_s", gen_s)
        names = harness.metric_names("per_layer")
        # a workload that does not load a layer reports 0 for it
        for name in names:
            if name not in result.metrics:
                result.put(name, 0.0)
    else:
        result.notes["bench.gen_s"] = "{:.3f} s".format(gen_s)
        names = harness.metric_names("end_to_end")
    report(result, names, args.workload, sha)
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
