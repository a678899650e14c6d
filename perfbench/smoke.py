#!/usr/bin/env python3
"""Smoke test of the benchmark itself (about a minute).

Usage (from the repository root):  python3 perfbench/smoke.py

For every workload in BENCHMARK.json, runs perfbench/run.py with a short
load window, untraced and traced, and checks that
  - the run exits 0 and its last line is the result object with exactly the
    keys correct / attempted / failed / metrics,
  - the correctness gate passed (correct is true, nothing failed),
  - every end-to-end metric (untraced) or per-layer metric (traced) named in
    BENCHMARK.json is printed with the unit BENCHMARK.json gives it.
It then runs flat16 at 1 and at 4 threads with the same seed and checks that
every simulated metric is identical. Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SEED = 5
LOAD_MS = 1000


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--load-ms", str(LOAD_MS)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}: "
             f"{proc.stderr.strip()[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, trace, expected, result):
    tag = f"{workload} --trace {trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{tag}: correctness gate: correct={result['correct']} "
             f"failed={result['failed']}")
    if result["attempted"] < 1:
        fail(f"{tag}: nothing attempted")
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            fail(f"{tag}: metric {m['name']} missing")
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"{tag}: {m['name']} unit {got[m['name']]['unit']} != "
                 f"{m['unit']}")
        if not isinstance(got[m["name"]]["value"], (int, float)):
            fail(f"{tag}: {m['name']} value is not a number")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        fail(f"{tag}: metrics not declared in BENCHMARK.json: {sorted(extra)}")
    print(f"ok  {tag}: {len(expected)} metrics, "
          f"{result['attempted']} ops attempted")


def sim_metrics(exe, threads):
    out = subprocess.run([str(exe), "--workload", "flat16", "--seed",
                          str(SEED), "--threads", str(threads),
                          "--load-ms", str(LOAD_MS)],
                         capture_output=True, text=True, timeout=600,
                         check=True).stdout
    ep = json.loads(out.strip().splitlines()[-1])
    keys = ("offered", "committed", "events", "commit_tps_sim",
            "tx_latency_p50_sim_ms", "tx_latency_p99_sim_ms",
            "xnet_latency_p50_sim_ms", "xnet_latency_p90_sim_ms")
    return {k: ep[k] for k in keys}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            check(w["name"], trace, expected, run(w["name"], trace))

    bdir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = (bdir if bdir.is_absolute() else ROOT / bdir) / "hc_perfbench"
    one, four = sim_metrics(exe, 1), sim_metrics(exe, 4)
    if one != four:
        fail(f"flat16 simulated metrics differ: 1 thread {one} vs 4 {four}")
    print("ok  flat16 simulated metrics identical at 1 and 4 threads")


if __name__ == "__main__":
    main()
