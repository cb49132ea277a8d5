#!/usr/bin/env python3
"""A/A comparison: are two sets of runs of the same code the same?

    python3 perfbench/compare.py collect --out DIR [--seeds 1-10] [--workloads a,b]
    python3 perfbench/compare.py diff DIR_A DIR_B

`collect` runs perfbench/run.py (untraced, for BENCHMARK.json's run_seconds)
once per workload and seed and keeps each run's result line in
DIR/<workload>.jsonl. `diff` prints, for every workload and end-to-end metric
of BENCHMARK.json, each set's median and quartiles and their spread
(interquartile distance as a share of the median), and checks what the bounds
promise:

  * each set's spread is within the metric's bound;
  * the second set's median is not worse than the first's by more than the
    bound;
  * both sets fail the same share of their operations.

It exits 1 if any check fails. The figures it prints are the evidence for
every bound in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def collect(out_dir, seeds, workloads):
    seconds = load_benchmark()["run_seconds"]
    os.makedirs(out_dir, exist_ok=True)
    for workload in workloads:
        path = os.path.join(out_dir, "%s.jsonl" % workload)
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print("%s seed %d failed:\n%s" % (workload, seed, proc.stderr[-2000:]))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(path, "a") as f:
                f.write(json.dumps({"seed": seed, "result": result}) + "\n")
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    return 0


def load_set(directory, workload):
    path = os.path.join(directory, "%s.jsonl" % workload)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line)["result"] for line in f if line.strip()]


def fail_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results), attempted


def compare_metric(metric, a_values, b_values):
    """Returns (line, ok) for one metric of one workload."""
    name, bound, better = metric["name"], metric["bound"], metric["better"]
    qa, qb = stats.quartiles(a_values), stats.quartiles(b_values)
    sa, sb = stats.spread(a_values), stats.spread(b_values)
    drift = stats.worse_by(qa[1], qb[1], better)
    ok = sa <= bound and sb <= bound and drift <= bound
    line = ("  %-20s bound %.2f | A med %11.6g q1 %11.6g q3 %11.6g spread %.3f | "
            "B med %11.6g q1 %11.6g q3 %11.6g spread %.3f | B worse by %+.3f  %s" %
            (name, bound, qa[1], qa[0], qa[2], sa, qb[1], qb[0], qb[2], sb, drift,
             "ok" if ok else "DISAGREE"))
    return line, ok


def diff(dir_a, dir_b):
    benchmark = load_benchmark()
    all_ok = True
    for workload in [w["name"] for w in benchmark["workloads"]]:
        a, b = load_set(dir_a, workload), load_set(dir_b, workload)
        if not a or not b:
            print("%s: missing runs (A %d, B %d)" % (workload, len(a), len(b)))
            all_ok = False
            continue
        fa, fb = fail_share(a), fail_share(b)
        share_ok = fa[0] * fb[1] == fb[0] * fa[1]
        all_ok &= share_ok and all(r["correct"] for r in a + b)
        print("%s: A %d runs, B %d runs, failed A %d/%d B %d/%d%s" %
              (workload, len(a), len(b), fa[0], fa[1], fb[0], fb[1],
               "" if share_ok else "  DISAGREE"))
        for metric in benchmark["end_to_end"]:
            line, ok = compare_metric(metric,
                                      [r["metrics"][metric["name"]]["value"] for r in a],
                                      [r["metrics"][metric["name"]]["value"] for r in b])
            print(line)
            all_ok &= ok
    print("A/A verdict: %s" % ("agree" if all_ok else "DISAGREE"))
    return 0 if all_ok else 1


def main(argv):
    parser = argparse.ArgumentParser(description="A/A comparison of benchmark run sets")
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", default=",".join(run.WORKLOADS))
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(args.out, parse_seeds(args.seeds), args.workloads.split(","))
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
