#!/usr/bin/env python3
"""Bench-regression gate: compare bench JSON artifacts against a baseline.

Usage:
    bench_compare.py --baseline BENCH_baseline.json current1.json [current2.json ...]
    bench_compare.py --self-test

The baseline file maps bench names to artifacts:
    {"benches": {"table2_latency_single": {"bench": ..., "metrics": ...}, ...}}
Each current file is one artifact as written by a bench's `--json` flag:
    {"bench": "<name>", "metrics": {"counters": ..., "gauges": ..., "histograms": ...}}

For every latency histogram present in both baseline and current, the gate
fails when the current p50 exceeds the baseline p50 by more than --threshold
(relative) AND by more than --abs-floor-ms (absolute). The absolute floor
exists because sub-0.1ms rows are dominated by measured CPU wall time, which
varies across machines far more than the modeled network time that dominates
the slower rows; a pure percentage gate on microsecond medians would flap.

A baseline latency row with no counterpart in the current artifact of the
same bench also fails, naming the row: a bench that stops emitting a row
would otherwise drop it from the gate without a word. Retiring a row means
deleting it from the baseline.

Exit status: 0 when every compared metric passes, 1 on any regression, any
vanished baseline row, or when nothing could be compared at all (a silent
empty gate is a broken gate). `--self-test` runs the gate over small built-in
fixtures and exits 0 when it behaves as described here.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile


def metric_family(name: str) -> str:
    """bench_latency_ms{mode="delta",query="L2"} -> bench_latency_ms"""
    return name.split("{", 1)[0]


def is_latency(metric: str) -> bool:
    return "latency" in metric_family(metric)


def compare(args) -> int:
    with open(args.baseline, encoding="utf-8") as f:
        benches = json.load(f).get("benches")
    if not isinstance(benches, dict):
        print(f"warning: baseline {args.baseline} has no 'benches' map; "
              "nothing to compare against", file=sys.stderr)
        benches = {}

    compared = 0
    failures = []
    vanished = []
    for path in args.current:
        with open(path, encoding="utf-8") as f:
            artifact = json.load(f)
        name = artifact.get("bench", "?")
        if name not in benches:
            print(f"note: no baseline entry for bench '{name}' ({path}), skipped")
            continue
        # A baseline entry or artifact missing its metrics/histograms section
        # (e.g. a bench recorded before it grew latency rows, or a truncated
        # upload) is a skip with a warning, not a traceback; the compared==0
        # guard below still fails the gate if nothing at all overlaps.
        base_hist = benches[name].get("metrics", {}).get("histograms")
        cur_hist = artifact.get("metrics", {}).get("histograms")
        if not isinstance(base_hist, dict) or not isinstance(cur_hist, dict):
            missing = "baseline" if not isinstance(base_hist, dict) else "current"
            print(f"warning: bench '{name}' ({path}) has no histograms in the "
                  f"{missing} artifact, skipped", file=sys.stderr)
            continue
        for metric, base in sorted(base_hist.items()):
            if is_latency(metric) and "p50" in base and metric not in cur_hist:
                print(f"[FAIL] {name} :: {metric}: in the baseline, missing "
                      "from the current artifact")
                vanished.append(f"{name} :: {metric}")
        for metric, cur in sorted(cur_hist.items()):
            if not is_latency(metric):
                continue
            base = base_hist.get(metric)
            if base is None or "p50" not in base or "p50" not in cur:
                continue
            compared += 1
            b50, c50 = base["p50"], cur["p50"]
            regressed = (c50 > b50 * (1.0 + args.threshold)
                         and c50 - b50 > args.abs_floor_ms)
            status = "FAIL" if regressed else "ok"
            print(f"[{status}] {name} :: {metric}: p50 {b50:.4f} -> {c50:.4f} ms"
                  f" ({(c50 / b50 - 1.0) * 100.0 if b50 else 0.0:+.1f}%)")
            if regressed:
                failures.append(f"{name} :: {metric}")

    if compared == 0:
        print("error: no latency metrics were compared — baseline and current "
              "artifacts do not overlap", file=sys.stderr)
        return 1
    if vanished:
        print(f"\n{len(vanished)} baseline latency row(s) missing from the "
              "current artifacts (delete them from the baseline to retire "
              "them):", file=sys.stderr)
        for v in vanished:
            print(f"  {v}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} p50 regression(s) beyond "
              f"{args.threshold:.0%} + {args.abs_floor_ms}ms:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
    if vanished or failures:
        return 1
    print(f"\nall {compared} latency p50s within {args.threshold:.0%} of baseline")
    return 0


def self_test() -> int:
    """Runs the gate over fixtures: a clean pass, a p50 regression, and a
    baseline row the current artifact no longer emits."""
    def artifact(p50s):
        return {"bench": "b", "metrics": {"histograms": {
            m: {"p50": v} for m, v in p50s.items()}}}

    rows = {'bench_latency_ms{query="A"}': 1.0,
            'bench_latency_ms{query="B"}': 2.0}
    cases = [
        ("identical rows pass", rows, 0, None),
        ("a regressed p50 fails", {**rows, 'bench_latency_ms{query="B"}': 3.0},
         1, None),
        ("a vanished baseline row fails and is named",
         {'bench_latency_ms{query="A"}': 1.0}, 1,
         'b :: bench_latency_ms{query="B"}'),
    ]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        baseline = os.path.join(tmp, "baseline.json")
        with open(baseline, "w", encoding="utf-8") as f:
            json.dump({"benches": {"b": artifact(rows)}}, f)
        for label, current_rows, want_rc, want_named in cases:
            current = os.path.join(tmp, "current.json")
            with open(current, "w", encoding="utf-8") as f:
                json.dump(artifact(current_rows), f)
            args = argparse.Namespace(baseline=baseline, threshold=0.15,
                                      abs_floor_ms=0.05, current=[current])
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                rc = compare(args)
            passed = rc == want_rc and (want_named is None
                                        or want_named in log.getvalue())
            print(f"[{'ok' if passed else 'FAIL'}] {label}: exit {rc}")
            ok = ok and passed
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--self-test", action="store_true",
                        help="check the gate against built-in fixtures")
    parser.add_argument("--baseline", help="committed BENCH_baseline.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative p50 regression allowed (default 0.15)")
    parser.add_argument("--abs-floor-ms", type=float, default=0.05,
                        help="ignore regressions smaller than this many ms")
    parser.add_argument("current", nargs="*",
                        help="bench artifacts to check")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.baseline is None or not args.current:
        parser.error("--baseline and at least one current artifact are required")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
