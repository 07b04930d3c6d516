#!/usr/bin/env python3
"""Perf-regression gate over the bench JSON artifacts.

Compares freshly-produced bench results (bench-results/bench_*.json,
written by the bench binaries during the CI Bench smoke step) against the
committed baselines (bench-results/BENCH_*.json). A scenario fails the
gate when a higher-is-better throughput metric lands below
baseline * (1 - tolerance).

Design choices for a shared-runner world:

  * The default tolerance is generous (25%): CI machines are noisy
    neighbours, and the gate's job is to catch the 2x cliff a refactor
    introduces, not a 10% wobble.
  * Scenarios are matched by their "scenario" key and compared only when
    present on both sides, so adding or retiring a scenario never breaks
    the gate; it reports (but does not fail on) baseline scenarios that
    disappeared from the fresh run.
  * Only throughput-like metrics (events/edges per second) gate.
    Latency percentiles ride along in the JSON for humans but are far too
    machine-dependent to block a merge on.
  * A missing fresh file is skipped with a note (the smoke step may run a
    subset); a missing *baseline* for a present fresh file is also only a
    note, so brand-new benches can land before their first baseline.
  * --strict inverts the lenient-by-default posture for runs that are
    supposed to be complete (the nightly job): a committed baseline whose
    fresh counterpart is missing, lacks a scenario, or ran at a different
    workload size FAILS instead of skipping. Without it, a bench that
    silently stopped producing a scenario would pass the gate forever.

The obs-overhead gate is different in kind: BENCH_obs.json carries its
own acceptance threshold (overhead.gate_pct, from the PR that measured
it), so the gate re-checks median_cpu_pct <= gate_pct on whichever file
is present (fresh if produced, else the committed baseline's
self-consistency).

Usage:
  ci/bench_gate.py [--results DIR] [--baseline DIR] [--tolerance 0.25]
                   [--strict]
  ci/bench_gate.py --self-test
"""

import argparse
import json
import pathlib
import sys

# Fresh-file name -> committed baseline name. bench_micro's Google
# Benchmark JSON and the smoke wall-time roll-up are deliberately absent:
# neither carries scenario-keyed throughput rows.
PAIRS = [
    ("bench_net.json", "BENCH_net.json"),
    ("bench_net_fanout.json", "BENCH_net_fanout.json"),
    ("bench_recovery.json", "BENCH_recovery.json"),
    ("bench_cluster.json", "BENCH_cluster.json"),
]

# Higher-is-better metrics, in the order a bench is likely to define
# them. Every other numeric field (latency ms, byte counts, setup time)
# is informational only.
THROUGHPUT_KEYS = ("ingest_eps", "deliver_mps", "deliver_eps", "eps")


def load(path):
    with open(path) as f:
        return json.load(f)


def index_rows(doc):
    """scenario -> row, for any bench doc with a rows[] of scenarios."""
    return {
        row["scenario"]: row
        for row in doc.get("rows", [])
        if "scenario" in row
    }


def workload_edges(doc, row):
    """A row's workload size: per-row edges, else the doc-wide count."""
    return row.get("edges", doc.get("edges"))


def gate_throughput(fresh, baseline, tolerance, label, report, strict=False):
    """Appends (ok, message) findings; returns the number of failures."""
    failures = 0
    fresh_rows = index_rows(fresh)
    base_rows = index_rows(baseline)
    for scenario, base_row in sorted(base_rows.items()):
        fresh_row = fresh_rows.get(scenario)
        if fresh_row is None:
            if strict:
                failures += 1
                report.append(
                    (False, f"{label}: '{scenario}' absent from fresh run "
                            "(strict)"))
            else:
                report.append(
                    (True, f"{label}: '{scenario}' absent from fresh run "
                           "(skipped)"))
            continue
        # Throughput at a downsized workload is dominated by fixed costs
        # (server start, file create), so only like-for-like sizes gate.
        fresh_edges = workload_edges(fresh, fresh_row)
        base_edges = workload_edges(baseline, base_row)
        if fresh_edges != base_edges:
            if strict:
                failures += 1
                report.append(
                    (False, f"{label}: '{scenario}' workload {fresh_edges} "
                            f"!= baseline {base_edges} edges (strict)"))
            else:
                report.append(
                    (True, f"{label}: '{scenario}' workload {fresh_edges} "
                           f"!= baseline {base_edges} edges (skipped)"))
            continue
        for key in THROUGHPUT_KEYS:
            base_value = base_row.get(key)
            fresh_value = fresh_row.get(key)
            if not isinstance(base_value, (int, float)) or base_value <= 0:
                continue
            if not isinstance(fresh_value, (int, float)):
                failures += 1
                report.append(
                    (False, f"{label}: '{scenario}' lost metric {key}"))
                continue
            floor = base_value * (1.0 - tolerance)
            ratio = fresh_value / base_value
            if fresh_value < floor:
                failures += 1
                report.append(
                    (False,
                     f"{label}: '{scenario}' {key} {fresh_value:.0f} is "
                     f"{ratio:.2f}x baseline {base_value:.0f} "
                     f"(floor {floor:.0f})"))
            else:
                report.append(
                    (True,
                     f"{label}: '{scenario}' {key} {ratio:.2f}x baseline"))
    return failures


def gate_obs_overhead(doc, label, report):
    """Re-checks an observability overhead block against its recorded
    budget. BENCH_obs.json carries median_cpu_pct (stage hooks on a
    CPU-bound path); bench_cluster.json carries median_ingest_pct (wall
    slowdown of cluster ingest under live scraping)."""
    overhead = doc.get("overhead", {})
    measured = overhead.get("median_ingest_pct",
                            overhead.get("median_cpu_pct"))
    budget = overhead.get("gate_pct")
    if not isinstance(measured, (int, float)) or not isinstance(
            budget, (int, float)):
        report.append(
            (False, f"{label}: overhead median pct / gate_pct missing"))
        return 1
    if measured > budget:
        report.append(
            (False, f"{label}: observability overhead {measured:.2f}% "
                    f"exceeds its {budget:.2f}% budget"))
        return 1
    report.append(
        (True, f"{label}: observability overhead {measured:.2f}% within "
               f"{budget:.2f}% budget"))
    return 0


def run_gate(results_dir, baseline_dir, tolerance, strict=False):
    report = []
    failures = 0
    for fresh_name, base_name in PAIRS:
        fresh_path = results_dir / fresh_name
        base_path = baseline_dir / base_name
        if not fresh_path.exists():
            if strict and base_path.exists():
                failures += 1
                report.append(
                    (False, f"{fresh_name}: committed baseline {base_name} "
                            "has no fresh results (strict)"))
            else:
                report.append(
                    (True, f"{fresh_name}: no fresh results (skipped)"))
            continue
        if not base_path.exists():
            report.append(
                (True, f"{fresh_name}: no committed baseline yet (skipped)"))
            continue
        failures += gate_throughput(load(fresh_path), load(base_path),
                                    tolerance, fresh_name, report, strict)
    obs_fresh = results_dir / "bench_obs.json"
    obs_base = baseline_dir / "BENCH_obs.json"
    if obs_fresh.exists():
        failures += gate_obs_overhead(load(obs_fresh), "bench_obs.json",
                                      report)
    elif obs_base.exists():
        failures += gate_obs_overhead(load(obs_base),
                                      "BENCH_obs.json (committed)", report)
    # Cluster observability rides the same budget discipline: the fresh
    # bench_cluster.json carries its own overhead block (paired
    # obs-off/obs-on wall time at 2 workers) with a recorded gate_pct.
    cluster_fresh = results_dir / "bench_cluster.json"
    cluster_base = baseline_dir / "BENCH_cluster.json"
    if cluster_fresh.exists() and "overhead" in load(cluster_fresh):
        failures += gate_obs_overhead(load(cluster_fresh),
                                      "bench_cluster.json (obs overhead)",
                                      report)
    elif cluster_base.exists() and "overhead" in load(cluster_base):
        failures += gate_obs_overhead(
            load(cluster_base), "BENCH_cluster.json (committed obs overhead)",
            report)
    return failures, report


def self_test():
    """The gate gates itself: a clean fresh run must pass, a degraded one
    must fail, and noise inside the tolerance must not trip it."""
    baseline = {
        "bench": "net_fanout",
        "rows": [
            {"scenario": "loops1 c100", "deliver_eps": 100000.0,
             "p99_ms": 40.0},
            {"scenario": "loops4 c1000", "deliver_eps": 400000.0,
             "p99_ms": 90.0},
        ],
    }
    clean = {
        "bench": "net_fanout",
        "rows": [
            # -20% and +10%: both inside the default 25% tolerance.
            {"scenario": "loops1 c100", "deliver_eps": 80000.0,
             "p99_ms": 70.0},  # latency regressions never gate
            {"scenario": "loops4 c1000", "deliver_eps": 440000.0,
             "p99_ms": 95.0},
        ],
    }
    degraded = {
        "bench": "net_fanout",
        "rows": [
            {"scenario": "loops1 c100", "deliver_eps": 60000.0},  # -40%
            {"scenario": "loops4 c1000", "deliver_eps": 410000.0},
        ],
    }
    downsized = {
        "bench": "net_fanout",
        "edges": 100,  # smoke-sized workload: must skip, not fail
        "rows": [
            {"scenario": "loops1 c100", "deliver_eps": 1000.0},
            {"scenario": "loops4 c1000", "deliver_eps": 1000.0},
        ],
    }
    partial = {
        "bench": "net_fanout",
        "rows": [
            # One baseline scenario missing: lenient skips, strict fails.
            {"scenario": "loops1 c100", "deliver_eps": 100000.0},
        ],
    }
    report = []
    ok_failures = gate_throughput(clean, baseline, 0.25, "self-test", report)
    bad_failures = gate_throughput(degraded, baseline, 0.25, "self-test",
                                   report)
    downsized_failures = gate_throughput(downsized, baseline, 0.25,
                                         "self-test", report)
    partial_lenient = gate_throughput(partial, baseline, 0.25, "self-test",
                                      report)
    partial_strict = gate_throughput(partial, baseline, 0.25, "self-test",
                                     report, strict=True)
    downsized_strict = gate_throughput(downsized, baseline, 0.25,
                                       "self-test", report, strict=True)
    obs_pass = {"overhead": {"median_cpu_pct": 1.6, "gate_pct": 3.0}}
    obs_fail = {"overhead": {"median_cpu_pct": 4.5, "gate_pct": 3.0}}
    obs_ok = gate_obs_overhead(obs_pass, "self-test obs", report)
    obs_bad = gate_obs_overhead(obs_fail, "self-test obs", report)
    obs_absent = gate_obs_overhead({}, "self-test obs", report)
    cluster_pass = {"overhead": {"median_ingest_pct": 0.8, "gate_pct": 3.0}}
    cluster_fail = {"overhead": {"median_ingest_pct": 5.1, "gate_pct": 3.0}}
    cluster_ok = gate_obs_overhead(cluster_pass, "self-test cluster", report)
    cluster_bad = gate_obs_overhead(cluster_fail, "self-test cluster", report)
    checks = [
        (ok_failures == 0, "clean fresh run passes"),
        (bad_failures == 1, "40% degradation fails exactly one scenario"),
        (downsized_failures == 0, "size-mismatched workload skips, not fails"),
        (partial_lenient == 0, "missing scenario skips by default"),
        (partial_strict == 1, "missing scenario fails under --strict"),
        (downsized_strict == 2, "size mismatch fails under --strict"),
        (obs_ok == 0, "in-budget obs overhead passes"),
        (obs_bad == 1, "over-budget obs overhead fails"),
        (obs_absent == 1, "overhead block with missing fields fails"),
        (cluster_ok == 0, "in-budget cluster ingest overhead passes"),
        (cluster_bad == 1, "over-budget cluster ingest overhead fails"),
    ]
    all_ok = True
    for ok, what in checks:
        print(f"{'ok' if ok else 'FAIL'}: {what}")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", default="bench-results",
                        help="directory with fresh bench_*.json")
    parser.add_argument("--baseline", default="bench-results",
                        help="directory with committed BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional throughput drop (0.25)")
    parser.add_argument("--strict", action="store_true",
                        help="fail (instead of skip) when a committed "
                             "baseline has no matching fresh scenario at "
                             "the same workload size")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the gate passes clean and fails "
                             "degraded synthetic results, then exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    failures, report = run_gate(pathlib.Path(args.results),
                                pathlib.Path(args.baseline), args.tolerance,
                                args.strict)
    for ok, message in report:
        print(f"{'ok' if ok else 'REGRESSION'}: {message}")
    if failures:
        print(f"\nbench gate: {failures} regression(s) beyond "
              f"{args.tolerance:.0%} tolerance")
        return 1
    print("\nbench gate: pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
