#!/usr/bin/env python3
"""Same-runner A/B of the declared benchmark (BENCHMARK.json).

Exports a base commit and the change commit (default HEAD) with
`git archive` into a scratch directory, then runs perfbench/run.py from
each tree in alternating pairs: pair i runs the base first when i is even
and the change first when i is odd, so slow drift on a shared host lands
on both sides. Each tree builds its own .bench_build on first use.

For every workload it prints, per end-to-end metric, each side's median
and quartiles and how many pairs the change won, plus the verdict of the
claim rule: the change wins at least 9 of 10 pairs (the same share for
other pair counts) and its median differs from the base median by more
than the base's interquartile range. It also prints the share of failed
operations and whether every run's correctness replay passed.

Informational only: nothing gates on it and it changes nothing under
perfbench/.

    ci/perf_ab.py --base HEAD~1                      # all workloads, 10 pairs
    ci/perf_ab.py --base HEAD~1 --workload dense-join --pairs 12
    ci/perf_ab.py --base main --change my-branch --seed 2
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLAIM_SHARE = 0.9  # 9 of 10 pairs


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def export(rev, dest):
    """Writes the committed files of `rev` into `dest`; returns the sha."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, text=True,
                         capture_output=True).stdout.strip()
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit("perf_ab.py: git archive %s failed" % rev)
    return sha


def run_once(tree, workload, seconds, seed, log_path):
    """One run.py run; returns its final JSON object, or None if it printed
    none. A run whose correctness replay failed exits 1 but still prints
    its JSON, so that result is kept. stderr goes to `log_path`."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    with open(log_path, "w") as err:
        proc = subprocess.run(cmd, cwd=tree, text=True,
                              stdout=subprocess.PIPE, stderr=err)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0:
        log("perf_ab.py: run.py exited %d, stderr in %s"
            % (proc.returncode, log_path))
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def better(a, b, direction):
    """True if value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def report(workload, metrics, runs):
    """`runs[side][i]` is pair i's result, or None if that run printed
    nothing; metrics are compared over the pairs where both sides did."""
    complete = [(b, c) for b, c in zip(runs["base"], runs["change"])
                if b is not None and c is not None]
    pairs = len(complete)
    need = math.ceil(CLAIM_SHARE * pairs)
    print("\n== %s: %d complete pairs of %d (claim rule: change wins >= %d "
          "and the median gap exceeds the base IQR)"
          % (workload, pairs, len(runs["base"]), need))
    for side in ("base", "change"):
        side_runs = [r for r in runs[side] if r is not None]
        lost = len(runs[side]) - len(side_runs)
        if lost:
            print("  %-6s %d run(s) printed no result" % (side, lost))
        attempted = sum(r.get("attempted", 0) for r in side_runs)
        failed = sum(r.get("failed", 0) for r in side_runs)
        correct = not lost and all(r.get("correct") for r in side_runs)
        print("  %-6s correctness %s, failed_ops_frac %.3g"
              % (side, "OK" if correct else "FAILED",
                 failed / attempted if attempted else float("nan")))
    print("  %-14s %-6s %12s %12s %12s   %12s %12s %12s  %5s  %s"
          % ("metric", "better", "base q1", "base med", "base q3",
             "change q1", "change med", "change q3", "wins", "verdict"))
    for m in metrics:
        name, direction, bound = m["name"], m["better"], m.get("bound")
        base = [b["metrics"][name]["value"] for b, _ in complete
                if name in b.get("metrics", {})]
        change = [c["metrics"][name]["value"] for _, c in complete
                  if name in c.get("metrics", {})]
        if not pairs or len(base) != pairs or len(change) != pairs:
            print("  %-14s missing from some runs" % name)
            continue
        wins = sum(better(c, b, direction) for b, c in zip(base, change))
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        if wins >= need and better(cmed, bmed, direction) and \
                abs(cmed - bmed) > bq3 - bq1:
            verdict = "gain"
        elif bound is not None and bmed and better(bmed, cmed, direction) \
                and abs(cmed - bmed) / abs(bmed) > bound:
            verdict = "WORSE than bound %.2f" % bound
        else:
            verdict = "no claim"
        print("  %-14s %-6s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g"
              "  %2d/%-2d  %s" % (name, direction, bq1, bmed, bq3, cq1, cmed,
                                 cq3, wins, pairs, verdict))
        for side, values in (("base", base), ("change", change)):
            print("  %21s %-6s %s"
                  % ("", side, " ".join("%.6g" % v for v in values)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base commit-ish")
    parser.add_argument("--change", default="HEAD", help="change commit-ish")
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all in "
                             "BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: perfbench's own)")
    parser.add_argument("--workdir",
                        help="where the two trees go (default: a new temp dir)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    workdir = args.workdir or tempfile.mkdtemp(prefix="perf_ab_")
    trees = {side: os.path.join(workdir, side) for side in ("base", "change")}
    shas = {side: export(rev, trees[side])
            for side, rev in (("base", args.base), ("change", args.change))}
    log("perf_ab.py: base %s, change %s, trees under %s"
        % (shas["base"][:12], shas["change"][:12], workdir))

    for workload in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                log_path = os.path.join(
                    workdir, "%s-%s-%d.log" % (workload, side, i + 1))
                runs[side].append(run_once(trees[side], workload, seconds,
                                           args.seed, log_path))
                log("perf_ab.py: %s pair %d %s done" % (workload, i + 1, side))
        report(workload, spec["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
