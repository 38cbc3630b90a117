"""Run the suite N times back to back and show how well it repeats.

    python3 benchmarks/e2e/repeat.py --runs 10 [--same-seed]
        [--workloads NAME ...] [--markdown FILE]

Per workload and end-to-end metric: median, quartiles, the distance
between the quartiles as a share of the median (the acceptance rule:
it must stay within the metric's bound; the target is a third of it),
and (max - min) / median. A second table compares the spread of every
timing as measured with its spread rescaled by the speed probe, from
the same runs. By default every run uses another seed, as
the acceptance procedure does; ``--same-seed`` repeats one seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def load_manifest():
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        raise RuntimeError("{} seed {} exited {}:\n{}".format(
            workload, seed, completed.returncode, completed.stdout[-2000:]))
    lines = completed.stdout.strip().splitlines()
    outcome = json.loads(lines[-1])
    if not outcome["correct"] or outcome["failed"]:
        raise RuntimeError("{} seed {} was not correct".format(
            workload, seed))
    timings = json.loads(next(
        line for line in lines if line.startswith("timings "))[8:])
    return ({name: entry["value"]
             for name, entry in outcome["metrics"].items()}, timings)


def spread_row(values, bound):
    """Statistics of one metric over the runs."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, __, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    iqr_share = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": iqr_share,
            "range_share": (max(values) - min(values)) / median,
            "verdict": ("PASS" if iqr_share <= bound / 3.0 else
                        "pass" if iqr_share <= bound else "FAIL")}


def table(results, bounds, runs, markdown):
    """Render ``{workload: {metric: [values]}}``; ``bounds`` maps each
    end-to-end metric to its bound."""
    lines = []
    if markdown:
        lines.append("| workload | metric | median | q1 | q3 | "
                     "(q3-q1)/median | (max-min)/median | bound | "
                     "verdict |")
        lines.append("|---|---|---|---|---|---|---|---|---|")
    pattern = ("| {} | {} | {:.4f} | {:.4f} | {:.4f} | {:.4f} | {:.4f} | "
               "{:.2f} | {} |" if markdown else
               "{:<16} {:<14} {:>12.4f} {:>12.4f} {:>12.4f} {:>8.4f} "
               "{:>8.4f} {:>6.2f} {}")
    for workload, metrics in results.items():
        for name, bound in bounds.items():
            row = spread_row(metrics[name], bound)
            lines.append(pattern.format(
                workload, name, row["median"], row["q1"], row["q3"],
                row["iqr_share"], row["range_share"], bound,
                row["verdict"]))
    lines.append("")
    lines.append("{} runs per workload. PASS: (q3-q1)/median within a "
                 "third of the bound; pass: within the bound; FAIL: "
                 "beyond it (setup_s is exempt from the spread "
                 "rule).".format(runs))
    return "\n".join(lines)


def comparison(both, markdown):
    """Quartile spread of every timing as measured and rescaled by the
    speed probe, from the same runs: ``{workload: {metric: {"raw":
    [values], "rescaled": [values]}}}``."""
    lines = ["", "Timings as measured and rescaled, same runs, "
             "(q3-q1)/median:", ""]
    if markdown:
        lines += ["| workload | metric | raw | rescaled |",
                  "|---|---|---|---|"]
    pattern = "| {} | {} | {:.4f} | {:.4f} |" if markdown else \
        "{:<16} {:<14} raw {:>8.4f}  rescaled {:>8.4f}"
    for workload, metrics in both.items():
        for name, values in metrics.items():
            lines.append(pattern.format(
                workload, name,
                spread_row(values["raw"], 1.0)["iqr_share"],
                spread_row(values["rescaled"], 1.0)["iqr_share"]))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=None)
    manifest = load_manifest()
    workloads = [entry["name"] for entry in manifest["workloads"]]
    bounds = {entry["name"]: entry["bound"]
              for entry in manifest["end_to_end"]}
    parser.add_argument("--workloads", nargs="+", default=workloads,
                        choices=workloads)
    parser.add_argument("--markdown", default=None, metavar="FILE")
    args = parser.parse_args(argv)
    results = {workload: {name: [] for name in bounds}
               for workload in args.workloads}
    both = {workload: {} for workload in args.workloads}
    for run in range(args.runs):
        seed = args.first_seed if args.same_seed else args.first_seed + run
        for workload in args.workloads:
            started = time.perf_counter()
            metrics, timings = run_once(workload, seed, args.seconds)
            wall = time.perf_counter() - started
            for name, value in metrics.items():
                results[workload][name].append(value)
            for name, pair in timings.items():
                series = both[workload].setdefault(
                    name, {"raw": [], "rescaled": []})
                for kind in series:
                    series[kind].append(pair[kind])
            sys.stderr.write("run {} {} seed {} ({:.1f} s): {}\n".format(
                run + 1, workload, seed, wall, "  ".join(
                    "{}={:.4g}".format(name, value)
                    for name, value in metrics.items())))
    print(table(results, bounds, args.runs, markdown=False))
    print(comparison(both, markdown=False))
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(table(results, bounds, args.runs, markdown=True)
                         + "\n" + comparison(both, markdown=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
