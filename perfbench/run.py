#!/usr/bin/env python3
"""Delos repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the load driver (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench, then runs rounds of the workload until --seconds have
passed. Each round is a separate process that builds a fresh 3-replica
cluster, does a fixed amount of work, checks its outputs and reports its own
figures; this script prints the median over rounds.

With --trace 1 the rounds alternate between traced and untraced, and the
per-layer metrics come from the traced rounds. The traced rounds' end-to-end
medians are compared with the untraced ones (trace_overhead.*_pct), and every
round's counts are written to .bench_build/perfbench/traces/.

Latency percentiles are taken over the samples of all summarized rounds
pooled together; every other end-to-end metric is the median over rounds.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "delos_perf")

WORKLOADS = ["zelos_light", "zelos_peak", "zelos_catchup", "table_light"]

END_TO_END = {
    "setup_s": "s",
    "write_p50_us": "us",
    "read_p50_us": "us",
    "ops_per_s": "1/s",
    "log_bytes_per_write": "B",
    "peak_rss_mb": "MB",
}

_LAYERS = {
    "sharedlog.append_p50_us": "us",
    "sharedlog.appends_per_write": "count",
    "sharedlog.bytes_per_append": "B",
    "sharedlog.check_tail_p50_us": "us",
    "sharedlog.reads_per_check_tail": "count",
    "sharedlog.read_range_us_per_record": "us",
    "readcache.hit_ratio": "ratio",
    "net.messages_per_op": "count",
    "base.apply_us_per_record": "us",
    "base.records_per_batch": "count",
    "base.postapply_us_per_record": "us",
    "base.txn_us_per_batch": "us",
    "base.read_stall_us_per_record": "us",
}
for _engine in ["digest", "braindoctor", "viewtracking", "sessionorder", "batching"]:
    _LAYERS["engine.%s.apply_us_per_record" % _engine] = "us"
    _LAYERS["engine.%s.postapply_us_per_record" % _engine] = "us"
_LAYERS.update({
    "stage.batching.queue_p50_us": "us",
    "stage.sessionorder.seq_p50_us": "us",
    "stage.base.append_p50_us": "us",
    "app.apply_us_per_op": "us",
    "app.postapply_us_per_op": "us",
    "loadgen.late_p99_us": "us",
})
PER_LAYER = dict(_LAYERS)
for _name in END_TO_END:
    PER_LAYER["trace_overhead.%s_pct" % _name] = "%"

# Latency percentiles: (sample kind, percentile), taken over the samples of
# all summarized rounds pooled together.
PERCENTILES = {
    "write_p50_us": ("write", 50),
    "read_p50_us": ("read", 50),
    "write_p99_us": ("write", 99),
    "read_p99_us": ("read", 99),
}
# Reserved tail metrics: printed with their sample counts, kept out of
# BENCHMARK.json until two sets of runs show them repeating within a tenth.
TAILS = ["write_p99_us", "read_p99_us"]

MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("Delos sources not found next to perfbench/ (no src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "delos_perf", "-j", jobs],
                   check=True, stdout=sys.stderr)


def cpu_ticks():
    """(steal, total) CPU ticks of the whole machine; (0, 0) where /proc/stat has none."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7], sum(fields)) if len(fields) == 8 else (0, 0)


def run_round(workload, seed, index, traced, workdir):
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed), "--round", str(index),
           "--trace", "1" if traced else "0", "--workdir", workdir]
    before = cpu_ticks()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    after = cpu_ticks()
    if proc.returncode != 0:
        raise RuntimeError("round %d of %s exited with %d: %s" %
                           (index, workload, proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    total = after[1] - before[1]
    result["steal"] = (after[0] - before[0]) / total if total > 0 else 0.0
    return result


def calm(rounds):
    """The rounds during which the hypervisor stole no more CPU than in the median round.

    On a shared host, bursts of stolen CPU time (seen at a quarter of the
    machine for tens of seconds) slow every thread of a round; such rounds
    measure the neighbours, not Delos. Keeps at least half of the rounds, and
    all of them where the host reports no steal.
    """
    cut = statistics.median([r["steal"] for r in rounds])
    return [r for r in rounds if r["steal"] <= cut]


def end_to_end(rounds, name):
    """One end-to-end metric over rounds: a latency percentile of their pooled
    samples, or else the median of the rounds' own figures."""
    if name in PERCENTILES:
        kind, q = PERCENTILES[name]
        return stats.percentile([x for r in rounds for x in r["samples"][kind]], q)
    return statistics.median([r["metrics"][name] for r in rounds])


def summarize(rounds, trace):
    """Folds the rounds of one run into the result object."""
    untraced = calm([r for r in rounds if not r["traced"]])
    traced = calm([r for r in rounds if r["traced"]]) if trace else []
    result = {
        "correct": all(r["violations"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }
    metrics = {}
    if not trace:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": end_to_end(untraced, name), "unit": unit}
    else:
        for name, unit in _LAYERS.items():
            values = [r["layers"][name] for r in traced]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        for name in END_TO_END:
            plain = end_to_end(untraced, name)
            with_trace = end_to_end(traced, name)
            overhead = 0.0 if plain == 0 else 100.0 * (with_trace / plain - 1.0)
            metrics["trace_overhead.%s_pct" % name] = {"value": overhead, "unit": "%"}
    result["metrics"] = metrics
    return result


def report(workload, rounds):
    """Human-readable lines: per-round figures, tails with their sample counts."""
    for kind in ("untraced", "traced"):
        every = [r for r in rounds if r["traced"] == (kind == "traced")]
        if not every:
            continue
        chosen = calm(every)
        print("%s: %d %s rounds, %d summarized (host steal at or below the median)" %
              (workload, len(every), kind, len(chosen)))
        print("  %-22s %s" % ("host steal per round", " ".join(
            "%.1f%%" % (100 * r["steal"]) for r in every)))
        for name, unit in END_TO_END.items():
            values = [end_to_end([r], name) for r in chosen]
            print("  %-22s run %12.6g %-4s rounds %s" % (name, end_to_end(chosen, name), unit,
                                                        " ".join("%.6g" % v for v in values)))
        for tail in TAILS:
            samples = sum(len(r["samples"][PERCENTILES[tail][0]]) for r in chosen)
            print("  %-22s run %12.6g us   (%d pooled samples; reserved, not gated)" %
                  (tail, end_to_end(chosen, tail), samples))
    for r in rounds:
        for message in r["messages"]:
            print("  check: %s" % message)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log("build failed: %s" % e)
        return 1

    workdir = os.path.join(BUILD_DIR, "work")
    os.makedirs(workdir, exist_ok=True)
    rounds = []
    start = time.monotonic()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            rounds.append(run_round(args.workload, args.seed, len(rounds), traced, workdir))
            done = [r for r in rounds if not r["traced"]]
            enough = len(done) >= MIN_ROUNDS and (
                not args.trace or len(rounds) - len(done) >= MIN_ROUNDS)
            if enough and time.monotonic() - start >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        log("run failed: %s" % e)
        return 1

    report(args.workload, rounds)
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as f:
            json.dump(rounds, f, indent=1)
        print("rounds written to %s" % os.path.relpath(path, ROOT))
    print(json.dumps(summarize(rounds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
