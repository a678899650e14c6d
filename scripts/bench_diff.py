#!/usr/bin/env python3
"""Compare a freshly generated bench sidecar against a committed baseline.

Usage:
    bench_diff.py BASELINE.json FRESH.json [--threshold PCT]

Both files are bench metric sidecars ({"bench": ..., "runs": [{"label",
"metrics", ...}]}); the optional "meta"/"seed" fields (schema 2) are
tolerated in either file. Runs are matched by label (intersection); for
each matched run the script derives three behavioural signals from the
metric snapshot:

    committed  sum of node_user_msgs_executed_total   (work done)
    events     sim_events_run_total                   (work spent)
    p99_us     block_commit_latency_us p99            (responsiveness)

and fails (exit 1) when, beyond --threshold percent (default 10):
    - committed drops        (less useful work than the baseline),
    - events rise            (more simulation work for the same run),
    - p99 rises              (commits got slower in simulated time).

Runs may additionally carry a "scale" object (bench_scale, DESIGN.md §17)
with deterministic memory-footprint fields; when both sides have one, the
script also gates:

    peak_bytes_per_node  max SubnetNode::mem_bytes() over the run (rise bad)
    bytes_per_account    peak aggregate node bytes / pre-funded accounts

Runs may also carry a "fingerprint" (bench_chaos, bench_byzantine: state
roots + metrics + trace of one scenario/seed); when both sides of a matched
run have one, any difference fails the gate regardless of --threshold, so
a refactor that must keep behaviour byte-identical is checked here.

Sim metrics are deterministic per seed, so on unchanged code the gate
passes trivially (all deltas are exactly 0). Wall-clock meta fields are
reported but never gate by default: they depend on the machine, not the
code. Pass --wall-gate PCT to additionally fail when the fresh file's
meta.wall_seconds exceeds the baseline's by more than PCT percent — only
meaningful when both files were produced on comparable hardware.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_doc(path: str) -> tuple[dict[str, dict], dict]:
    """Runs keyed by label (the full run objects) plus the meta block."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    runs = {}
    for run in doc.get("runs", []):
        runs[run["label"]] = run
    return runs, doc.get("meta", {})


def sum_counter(metrics: dict, family: str) -> int | None:
    fam = metrics.get("counters", {}).get(family)
    if fam is None:
        return None
    return sum(fam.values())


def histogram_p99(metrics: dict, family: str) -> float | None:
    """p99 across every labelset of `family`, via cumulative-bucket
    interpolation over the merged buckets (bounds are identical across
    labelsets of one family by construction)."""
    fam = metrics.get("histograms", {}).get(family)
    if not fam:
        return None
    bounds = None
    merged: list[int] = []
    total = 0
    for h in fam.values():
        if bounds is None:
            bounds = h["bounds"]
            merged = [0] * len(h["buckets"])
        if h["bounds"] != bounds or len(h["buckets"]) != len(merged):
            return None  # incompatible shapes; skip the signal
        for i, b in enumerate(h["buckets"]):
            merged[i] += b
        total += h["count"]
    if total == 0 or bounds is None:
        return None
    target = 0.99 * total
    cumulative = 0
    for i, count in enumerate(merged):
        prev = cumulative
        cumulative += count
        if cumulative >= target:
            lo = bounds[i - 1] if i > 0 else 0
            hi = bounds[i] if i < len(bounds) else bounds[-1] * 2
            frac = (target - prev) / count if count else 0.0
            return lo + frac * (hi - lo)
    return float(bounds[-1])


def pct_change(old: float, new: float) -> float:
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    return 100.0 * (new - old) / old


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="max tolerated regression in percent (default 10)")
    ap.add_argument("--wall-gate", type=float, default=None, metavar="PCT",
                    help="also fail when fresh meta.wall_seconds exceeds the "
                         "baseline's by more than PCT percent (off by "
                         "default: wall clock is machine-dependent)")
    args = ap.parse_args()

    base_doc, base_meta = load_doc(args.baseline)
    fresh_doc, fresh_meta = load_doc(args.fresh)
    base = {k: v.get("metrics", {}) for k, v in base_doc.items()}
    fresh = {k: v.get("metrics", {}) for k, v in fresh_doc.items()}
    labels = sorted(set(base) & set(fresh))
    if not labels:
        print(f"bench_diff: no common run labels between {args.baseline} "
              f"({sorted(base)}) and {args.fresh} ({sorted(fresh)})",
              file=sys.stderr)
        return 1

    skipped = sorted((set(base) | set(fresh)) - set(labels))
    if skipped:
        print(f"bench_diff: comparing {len(labels)} run(s); "
              f"not in both files (skipped): {skipped}")

    failures = []
    for label in labels:
        b, f = base[label], fresh[label]
        checks = [
            # (name, baseline, fresh, regression = fresh is 'direction' of base)
            ("committed", sum_counter(b, "node_user_msgs_executed_total"),
             sum_counter(f, "node_user_msgs_executed_total"), "lower"),
            ("events", sum_counter(b, "sim_events_run_total"),
             sum_counter(f, "sim_events_run_total"), "higher"),
            ("p99_us", histogram_p99(b, "block_commit_latency_us"),
             histogram_p99(f, "block_commit_latency_us"), "higher"),
            # Memory/zero-copy signals (DESIGN.md §16). Absent families are
            # skipped, so baselines predating them still gate the rest.
            ("alloc_bytes", sum_counter(b, "alloc_bytes_total"),
             sum_counter(f, "alloc_bytes_total"), "higher"),
            ("decode_misses", sum_counter(b, "payload_decode_misses_total"),
             sum_counter(f, "payload_decode_misses_total"), "higher"),
            ("decode_hits", sum_counter(b, "payload_decode_hits_total"),
             sum_counter(f, "payload_decode_hits_total"), "lower"),
        ]
        # Memory-footprint gate (DESIGN.md §17): deterministic logical
        # sizes from bench_scale's "scale" object. Only gated when both
        # sides carry the object, so older baselines still gate the rest.
        b_scale = base_doc[label].get("scale", {})
        f_scale = fresh_doc[label].get("scale", {})
        for field in ("peak_bytes_per_node", "bytes_per_account"):
            checks.append((field, b_scale.get(field), f_scale.get(field),
                           "higher"))

        b_fp = base_doc[label].get("fingerprint")
        f_fp = fresh_doc[label].get("fingerprint")
        if b_fp is not None and f_fp is not None:
            same = b_fp == f_fp
            print(f"  {label:48s} {'fingerprint':10s} {b_fp} -> {f_fp} "
                  f"{'ok' if same else 'FAIL'}")
            if not same:
                failures.append((label, "fingerprint", None))

        for name, old, new, bad_direction in checks:
            if old is None or new is None:
                continue
            delta = pct_change(old, new)
            regressed = (delta < -args.threshold
                         if bad_direction == "lower"
                         else delta > args.threshold)
            marker = "FAIL" if regressed else "ok"
            print(f"  {label:48s} {name:10s} {old:>14.1f} -> {new:>14.1f} "
                  f"({delta:+7.2f}%) {marker}")
            if regressed:
                failures.append((label, name, delta))

    # Opt-in wall-clock gate: one number per file (the meta block), not per
    # run. Reported either way so perf drift is visible in the log.
    base_wall = base_meta.get("wall_seconds")
    fresh_wall = fresh_meta.get("wall_seconds")
    if base_wall is not None and fresh_wall is not None:
        delta = pct_change(base_wall, fresh_wall)
        gated = args.wall_gate is not None
        regressed = gated and delta > args.wall_gate
        marker = "FAIL" if regressed else ("ok" if gated else "info")
        print(f"  {'(meta)':48s} {'wall_s':10s} {base_wall:>14.3f} -> "
              f"{fresh_wall:>14.3f} ({delta:+7.2f}%) {marker}")
        if regressed:
            failures.append(("(meta)", "wall_seconds", delta))

    if failures:
        print(f"\nbench_diff: {len(failures)} regression(s) beyond "
              f"{args.threshold:.1f}% or fingerprint mismatch(es):",
              file=sys.stderr)
        for label, name, delta in failures:
            change = "changed" if delta is None else f"{delta:+.2f}%"
            print(f"  {label}: {name} {change}", file=sys.stderr)
        return 1
    print(f"bench_diff: {len(labels)} run(s) within {args.threshold:.1f}% "
          "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
