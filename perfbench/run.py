#!/usr/bin/env python3
"""StreamWorks benchmark driver.

Builds the benchmark (perfbench/CMakeLists.txt compiles the library from
../src) and runs one workload:

    python3 perfbench/run.py --workload cyber-daemon --seed 1 --seconds 10 --trace 0

The workload's ladder comes from perfbench/workloads.json: the offered
rates of its open-loop rungs (edges/s, ascending), the nominal rung whose
latency is reported and the p99 latency limit a sustained rung must meet.
The default seed is there too. With --trace 0 the last line of output is a
JSON object holding every end-to-end metric; with --trace 1 it holds every
per-layer metric and the run also writes its spans to .bench_out/.

    python3 perfbench/run.py --selftest             # the benchmark's own math tests
    python3 perfbench/run.py --ledger --workload W  # untraced vs traced side by side

The build goes to $CARGO_TARGET_DIR if set, else .bench_build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "streamworks", "core", "engine.h")):
        log("run.py: StreamWorks sources (src/streamworks) not found next to perfbench/")
        return False
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def workload_args(name, seed, seconds, trace):
    with open(os.path.join(HERE, "workloads.json")) as f:
        table = json.load(f)
    spec = table["workloads"].get(name)
    if spec is None:
        raise SystemExit("run.py: unknown workload %r (have: %s)"
                         % (name, ", ".join(sorted(table["workloads"]))))
    if seed is None:
        seed = table["default_seed"]
    return [
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
        "--ladder", ",".join(str(r) for r in spec["ladder_eps"]),
        "--nominal", str(spec["nominal_eps"]),
        "--limit-ms", str(spec["latency_limit_ms"]),
    ]


def run_bench(args, echo=True):
    """Runs swbench; returns (exit code, stdout lines)."""
    exe = os.path.join(build_dir(), "swbench")
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    lines = []
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("run.py: benchmark timed out")
        return 1, lines
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return proc.returncode, lines


def ledger(args):
    """Untraced and traced runs of one workload: each end-to-end metric
    beside its traced value (the difference is the tracing overhead),
    then the traced run's per-layer self times."""
    runs = {}
    for trace in (False, True):
        code, lines = run_bench(
            workload_args(args.workload, args.seed, args.seconds, trace),
            echo=False)
        if code != 0 or not lines:
            log("run.py: %s run failed" % ("traced" if trace else "untraced"))
            return 1
        runs[trace] = lines
    def e2e(lines):
        """End-to-end metrics, plus the nominal latency percentiles."""
        out = {}
        for line in lines:
            if line.startswith("metric ") or line.startswith("layer match_latency"):
                name, _, rest = line.split(" ", 1)[1].partition(" = ")
                value, unit = rest.split()[:2]
                out[name] = (float(value), unit)
        return out
    plain, traced = e2e(runs[False]), e2e(runs[True])
    print("ledger %s: end-to-end metric, untraced, traced, overhead"
          % args.workload)
    for name in sorted(plain):
        a, unit = plain[name]
        b, _ = traced.get(name, (float("nan"), unit))
        pct = (b - a) / a * 100 if a else float("nan")
        print("  %-22s %14.6g %14.6g %s  (%+.1f%%)" % (name, a, b, unit, pct))
    for line in runs[True]:
        if line.startswith("ledger") or line.startswith("  "):
            print(line)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--ledger", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("bench_math_test"):
            return 1
        return subprocess.run([os.path.join(build_dir(), "bench_math_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("swbench"):
        return 1
    if args.ledger:
        return ledger(args)
    code, _ = run_bench(workload_args(args.workload, args.seed, args.seconds,
                                      args.trace == 1))
    return code


if __name__ == "__main__":
    sys.exit(main())
