#!/usr/bin/env python3
"""Same-host A/B of two source trees on one perfbench workload.

    python3 scripts/perf_ab.py PARENT_TREE CHANGE_TREE --workload catalogue \\
        --pairs 10 --seed 1 --seconds 30

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace X`
in each tree (run.py builds that tree's benchmark into its own
.bench_build/), one pair per seed S = --seed, --seed + 1, ..., and
alternates which tree runs first. Every run must report `correct` with 0
failed, or the script stops. For each metric BENCHMARK.json declares
(`end_to_end` with --trace 0, `per_layer` with --trace 1) it prints both
medians with their quartiles, the ratio change / parent, the pairs the
change won (ties count for neither side), and whether the gain rule holds:
the change wins at least 9/10 of the pairs and the medians differ by more
than the parent's interquartile range. --json FILE also writes every run's
metrics.

A tool for measuring a change by hand; it does not edit either tree.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(tree, args, seed):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("perf_ab.py: %s in %s exited %d" %
                 (" ".join(command), tree, done.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 0) != 0:
        sys.exit("perf_ab.py: run in %s at seed %d was not correct: %s" %
                 (tree, seed, lines[-1]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="source tree of the parent commit")
    parser.add_argument("change", help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args, seed))
        print("pair %d/%d (seed %d, %s first) done" %
              (i + 1, args.pairs, seed, order[0]), file=sys.stderr)

    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace,
                       "runs": runs}, f, indent=1)

    print("%s, %d pairs, seeds %d-%d, --seconds %g --trace %d" %
          (args.workload, args.pairs, args.seed, args.seed + args.pairs - 1,
           args.seconds, args.trace))
    print("| metric | parent median (q1-q3) | change median (q1-q3) | ratio "
          "| change better | gain rule |")
    print("|---|---|---|---|---|---|")
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        gap = (pm - cm) if lower else (cm - pm)
        holds = wins * 10 >= 9 * args.pairs and gap > p3 - p1
        ratio = "%.3fx" % (cm / pm) if pm else "n/a"
        print("| %s (%s) | %.6g (%.6g-%.6g) | %.6g (%.6g-%.6g) | %s | %d/%d "
              "| %s |" % (name, metric["unit"], pm, p1, p3, cm, c1, c3, ratio,
                          wins, args.pairs, "holds" if holds else "no"))


if __name__ == "__main__":
    main()
