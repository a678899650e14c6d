#!/usr/bin/env python3
"""Validate the profiler output of traced perfbench episodes.

Usage:
    profile_smoke.py EPISODE.json [EPISODE.json ...] \\
        [--coverage 0.6] [--max-overhead 0.05]

Each EPISODE.json is a profile file that `perfbench/run.py --trace 1` leaves
under .bench_build/traces/ (or $CARGO_TARGET_DIR/traces/); its folded stacks
are read from EPISODE.json.folded next to it. The checks run on the file's
"window" report, the timed window of the episode:
    1. The report has a non-empty phase table (top-N hotspots exist).
    2. Every folded-stack line parses as "path;seg;... <int ns>", the paths
       name phases present in the report, and the self times sum to the
       report's attributed time.
    3. The top-3 phases' self time covers >= --coverage of attributed
       wall time (default 0.6): attribution is meaningful, not smeared.
    4. The profiler's estimated overhead is <= --max-overhead of
       attributed runtime (default 5%).
Every file must pass; the exit status is 1 on the first failure.
"""

from __future__ import annotations

import argparse
import json
import sys


def fail(msg: str) -> int:
    print(f"profile_smoke: FAIL: {msg}", file=sys.stderr)
    return 1


def check(profile_json: str, coverage_min: float, overhead_max: float) -> int:
    folded = profile_json + ".folded"
    with open(profile_json, "r", encoding="utf-8") as f:
        profile = json.load(f)["window"]

    phases = profile.get("phases", [])
    if not phases:
        return fail(f"{profile_json} has an empty phase table")
    attributed = profile.get("attributed_ns", 0)
    if attributed <= 0:
        return fail(f"{profile_json}: attributed_ns is not positive")

    phase_names = {p["name"] for p in phases}
    n_lines = 0
    folded_self = 0
    with open(folded, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            path, sep, ns = line.rpartition(" ")
            if not sep or not path:
                return fail(f"{folded}:{lineno}: no 'path ns' split: "
                            f"{line!r}")
            try:
                ns_val = int(ns)
            except ValueError:
                return fail(f"{folded}:{lineno}: non-integer sample "
                            f"count {ns!r}")
            if ns_val <= 0:
                return fail(f"{folded}:{lineno}: non-positive self "
                            f"time {ns_val}")
            for seg in path.split(";"):
                if seg not in phase_names:
                    return fail(f"{folded}:{lineno}: unknown phase "
                                f"{seg!r} in stack {path!r}")
            n_lines += 1
            folded_self += ns_val
    if n_lines == 0:
        return fail(f"{folded} is empty")
    if folded_self != attributed:
        return fail(f"{folded}: self-time sum {folded_self} != "
                    f"attributed_ns {attributed}")

    top3 = sum(p["self_ns"] for p in phases[:3])
    coverage = top3 / attributed
    overhead = profile.get("overhead_ns_est", 0) / attributed
    top_names = [p["name"] for p in phases[:3]]
    print(f"profile_smoke: {profile_json}: {len(phases)} phases, "
          f"{n_lines} folded stacks, top-3 {top_names} cover "
          f"{coverage:.1%} of {attributed / 1e6:.1f} ms attributed, "
          f"overhead est {overhead:.2%}")
    if coverage < coverage_min:
        return fail(f"{profile_json}: top-3 coverage {coverage:.1%} < "
                    f"{coverage_min:.0%}")
    if overhead > overhead_max:
        return fail(f"{profile_json}: estimated overhead {overhead:.2%} > "
                    f"{overhead_max:.0%}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("episodes", nargs="+", metavar="EPISODE.json")
    ap.add_argument("--coverage", type=float, default=0.6,
                    help="min top-3 self-time share of attributed time")
    ap.add_argument("--max-overhead", type=float, default=0.05,
                    help="max profiler overhead as share of attributed time")
    args = ap.parse_args()
    for path in args.episodes:
        if check(path, args.coverage, args.max_overhead):
            return 1
    print(f"profile_smoke: OK ({len(args.episodes)} episodes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
