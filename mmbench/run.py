#!/usr/bin/env python3
"""The repository benchmark: builds mmbench from source and runs one workload.

Run from the repository root:

  python3 mmbench/run.py --workload lifecycle-1t --seed 1 --seconds 15 --trace 0
  python3 mmbench/run.py ... --out results.jsonl     # also append the result
  python3 mmbench/run.py --compare before.jsonl after.jsonl
  python3 mmbench/run.py --selftest

Builds into $CARGO_TARGET_DIR/mmbench (default .bench_build/mmbench) with
CMake, runs the mmbench binary, and prints its output; the last line is the
JSON result {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
set-up time is the median of five set-ups: the run's own and four
--setup-only runs of the binary, each a fresh process. Workloads, metrics and
their bounds are described in BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lifecycle-1t", "contended-4t")
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170


def fail(message):
    print("mmbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "mmbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no CortenMM sources next to the benchmark (expected src/ at %s)" % ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def run_binary(binary, args):
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("mmbench exited with %d" % proc.returncode)
    return lines


def run(opts):
    binary = os.path.join(build(), "mmbench")
    common = ["--workload", opts.workload, "--seed", str(opts.seed)]
    lines = run_binary(binary, common + ["--seconds", str(opts.seconds),
                                         "--trace", str(opts.trace)])
    result = json.loads(lines[-1])
    fingerprint = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    if opts.trace == 0:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            setup = json.loads(run_binary(binary, common + ["--setup-only"])[-1])
            if setup["failed"] != 0:
                result["correct"] = False
            setups.append(setup["setup_s"])
        print("setup_s samples: " + " ".join("%.4f" % s for s in setups))
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    if opts.out:
        record = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
                  "trace": opts.trace, "fingerprint": fingerprint}
        record.update(result)
        with open(opts.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))


# --- Compare mode --------------------------------------------------------------


def spread(values):
    """Interquartile range as a share of the median (0 with < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def load(path):
    groups = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                key = (record["workload"], record["trace"], name)
                groups.setdefault(key, []).append(metric["value"])
    return groups


def compare(before_path, after_path):
    """Prints, per workload and metric, the change of the median against the
    run-to-run spread of both sides, and names the per-layer metrics that
    moved by more than that spread."""
    before, after = load(before_path), load(after_path)
    print("%-14s %-36s %14s %14s %9s %9s  %s" %
          ("workload", "metric", "before", "after", "delta%", "noise%", "verdict"))
    moved_layers = []
    for key in sorted(set(before) & set(after)):
        workload, trace, name = key
        b, a = before[key], after[key]
        mb, ma = statistics.median(b), statistics.median(a)
        delta = (ma - mb) / abs(mb) if mb else (0.0 if ma == mb else float("inf"))
        noise = max(spread(b), spread(a))
        moved = abs(delta) > noise and mb != ma
        verdict = "moved" if moved else "within noise"
        print("%-14s %-36s %14.4g %14.4g %+9.2f %9.2f  %s (n=%d/%d)" %
              (workload, name, mb, ma, 100 * delta, 100 * noise, verdict, len(b), len(a)))
        if moved and trace == 1:
            moved_layers.append("%s %s %+.1f%%" % (workload, name, 100 * delta))
    print("per-layer metrics that moved:")
    for entry in moved_layers or ["(none)"]:
        print("  " + entry)


# --- Self-test -----------------------------------------------------------------


def selftest():
    out = build()
    test = subprocess.run([os.path.join(out, "mmbench_stats_test")])
    assert spread([1.0]) == 0.0
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert abs(spread(values) - (q3 - q1) / 14.5) < 1e-12
    print("run.py compare statistics: ok")
    return test.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="append the result as one JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --out result files")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.compare:
        compare(*opts.compare)
        return 0
    if opts.selftest:
        return selftest()
    if None in (opts.workload, opts.seed, opts.seconds, opts.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if opts.seed < 0 or not 1 <= opts.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")
    run(opts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
