#!/usr/bin/env python3
"""Perf-regression gate over BENCH_solver.json.

Compares a fresh bench_solver_perf run against the committed baseline
(bench/baselines/BENCH_solver.baseline.json) and fails when a watched bench
regresses by more than --max-regression after host normalization.

Host normalization: CI machines differ in absolute speed from the machine
that recorded the baseline, so absolute ns thresholds are useless. Instead,
each bench's ratio current/baseline is computed, and the *median* ratio over
all benches is taken as the host factor (how much slower/faster this machine
is overall). A watched bench fails only when its own ratio exceeds the host
factor by more than the allowed regression — i.e. it got slower *relative to
the rest of the suite*, which is what a code regression looks like. A
uniformly slow CI host shifts every ratio equally and passes.

Usage:
  check_bench.py compare BASELINE CURRENT [--max-regression 0.10]
                 [--bench NAME ...]
  check_bench.py update BASELINE CURRENT

`compare` exits 1 on regression (or malformed input). `update` rewrites the
baseline file from a current run — do this deliberately, in its own commit,
when an intentional perf change moves the floor.
"""

import argparse
import json
import sys

# Benches gated by default: the closed-loop ECE_EUDC drive (ms per plan of a
# whole drive), the hot-path window measurements (both QP backends) and the
# condensed path's warm resolve kernel. The micro benches still participate
# in the host-factor median.
DEFAULT_WATCHED = [
    "mpc_closed_loop_ece_eudc",
    "mpc_plan_step_warm",
    "sqp_mpc_window_h12",
    "mpc_plan_step_condensed_warm",
    "dense_active_set_resolve",
]

SCHEMA = "evclimate-solver-bench-v1"


def load_benches(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"{path}: expected schema '{SCHEMA}', got {doc.get('schema')!r}")
    out = {}
    for bench in doc.get("benches", []):
        name = bench.get("name")
        ns = bench.get("ns_per_rep")
        if not name or not isinstance(ns, (int, float)) or ns <= 0:
            sys.exit(f"{path}: bench entry missing name/ns_per_rep: {bench}")
        out[name] = float(ns)
    if not out:
        sys.exit(f"{path}: no benches")
    return out


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def cmd_compare(args):
    baseline = load_benches(args.baseline)
    current = load_benches(args.current)

    common = sorted(set(baseline) & set(current))
    if not common:
        sys.exit("no benches in common between baseline and current")
    ratios = {name: current[name] / baseline[name] for name in common}
    host_factor = median(ratios.values())

    watched = args.bench or DEFAULT_WATCHED
    missing = [name for name in watched if name not in ratios]
    if missing:
        sys.exit(f"watched benches missing from run: {', '.join(missing)}")

    print(f"host factor (median ratio over {len(common)} benches): "
          f"{host_factor:.3f}")
    print(f"{'bench':<28} {'baseline':>12} {'current':>12} "
          f"{'ratio':>7} {'norm':>7}")
    failures = []
    for name in common:
        norm = ratios[name] / host_factor
        gated = name in watched
        verdict = ""
        if gated:
            if norm > 1.0 + args.max_regression:
                verdict = "  REGRESSION"
                failures.append((name, norm))
            else:
                verdict = "  ok"
        print(f"{name:<28} {baseline[name]:>12.0f} {current[name]:>12.0f} "
              f"{ratios[name]:>7.3f} {norm:>7.3f}{verdict}")

    if failures:
        for name, norm in failures:
            print(f"FAIL: {name} is {(norm - 1.0) * 100:.1f}% slower than "
                  f"baseline after host normalization "
                  f"(limit {args.max_regression * 100:.0f}%)",
                  file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


def cmd_update(args):
    load_benches(args.current)  # validate before overwriting
    with open(args.current, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(args.baseline, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"baseline {args.baseline} updated from {args.current}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="gate current run vs baseline")
    compare.add_argument("baseline")
    compare.add_argument("current")
    compare.add_argument("--max-regression", type=float, default=0.10,
                         help="allowed slowdown of watched benches after "
                              "host normalization (default 0.10 = 10%%)")
    compare.add_argument("--bench", action="append",
                         help="bench name to gate (repeatable; default: "
                              + ", ".join(DEFAULT_WATCHED) + ")")
    compare.set_defaults(fn=cmd_compare)

    update = sub.add_parser("update", help="rewrite baseline from a run")
    update.add_argument("baseline")
    update.add_argument("current")
    update.set_defaults(fn=cmd_update)

    args = parser.parse_args()
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
