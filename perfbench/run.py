#!/usr/bin/env python3
"""Repository benchmark: committed operations per wall-second, end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload flat16 --seed 7 --seconds 20 --trace 0

Builds the simulator and the episode driver from source (CMake, Release, into
$CARGO_TARGET_DIR or .bench_build), then runs episodes of the workload, each
in a fresh process, until --seconds have passed. Every episode offers the
same seeded load, so the simulated metrics must repeat exactly across the
episodes of a run; the wall-clock metrics are the medians over episodes.

--trace 0 prints the end-to-end metrics, measured with the profiler off.
--trace 1 alternates unprofiled and profiled episodes and prints the
per-layer metrics of the profiled ones, plus the profiling overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> {value, unit}). The line before it records the run's
environment (seed, threads, nproc, git SHA, NDEBUG). Exit code 0 only when a
result was printed. NOTES.md describes the workloads and the metrics.
"""
import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = {"flat16": 4, "xnet-tree": 1, "bft-wal": 1}  # name -> threads

MIN_EPISODES = 3  # per kind of episode in one run
EPISODE_TIMEOUT_S = 150

# Simulated metrics: deterministic per seed, so equal in every episode.
SIM_METRICS = ("commit_tps_sim", "tx_latency_p50_sim_ms",
               "tx_latency_p99_sim_ms", "xnet_latency_p50_sim_ms",
               "xnet_latency_p90_sim_ms")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the episode driver; returns its path."""
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("simulator sources (src/) not found; run from the "
                           "repository root")
    bdir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not bdir.is_absolute():
        bdir = root / bdir
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep compiler temporaries inside the build tree too.
    tmp = bdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(bdir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (bdir / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", str(bdir), "--target",
                        "hc_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    return bdir


def episode(bdir, workload, seed, trace, load_ms, index):
    cmd = [str(bdir / "hc_perfbench"), "--workload", workload,
           "--seed", str(seed), "--threads", str(WORKLOADS[workload]),
           "--trace", "1" if trace else "0"]
    if load_ms:
        cmd += ["--load-ms", str(load_ms)]
    if trace:
        out = bdir / "traces" / f"{workload}-seed{seed}-{index}.json"
        out.parent.mkdir(exist_ok=True)
        cmd += ["--profile-out", str(out)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=EPISODE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"episode failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha(root):
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=root, capture_output=True, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--load-ms", type=int, default=0,
                    help="shorten the offered-load window (smoke tests)")
    args = ap.parse_args()

    root = Path.cwd()
    try:
        bdir = build(root)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    # Timed episodes run with the profiler off; in a traced run every other
    # episode is profiled, so both sides see the same machine conditions.
    timed, traced = [], []
    deadline = time.monotonic() + args.seconds
    i = 0
    try:
        while (len(timed) < MIN_EPISODES
               or (args.trace and len(traced) < MIN_EPISODES)
               or time.monotonic() < deadline):
            profiled = bool(args.trace) and i % 2 == 1
            ep = episode(bdir, args.workload, args.seed, profiled,
                         args.load_ms, i)
            (traced if profiled else timed).append(ep)
            i += 1
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        log(str(e))
        return 1

    episodes = timed + traced
    violations = sorted({v for ep in episodes for v in ep["violations"]})
    deterministic = all(ep[k] == episodes[0][k]
                        for ep in episodes
                        for k in SIM_METRICS + ("offered", "committed",
                                                "events"))
    for v in violations:
        log(f"correctness violation: {v}")
    if not deterministic:
        log("simulated metrics differ between episodes of one seed")
    correct = (not violations and deterministic
               and all(ep["ndebug"] for ep in timed))
    attempted = sum(int(ep["offered"]) for ep in episodes)
    failed = sum(int(ep["offered"]) - int(ep["committed"]) +
                 len(ep["violations"]) for ep in episodes)

    # Names and units come from BENCHMARK.json: --trace 0 prints every
    # end-to-end metric, --trace 1 every per-layer one.
    bench = json.loads((root / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        base = median([ep["commit_tps_wall"] for ep in timed])
        prof = median([ep["commit_tps_wall"] for ep in traced])
        values = {name: median([ep["layers"][name] for ep in traced])
                  for name in traced[0]["layers"]}
        values["obs.trace_overhead_frac"] = 1.0 - prof / base if base else 0.0
        values["sim.events_per_wall_s"] = median(
            [ep["events"] / ep["window_s"] for ep in timed])
        values["op_fail_frac"] = failed / attempted
    else:
        values = {name: median([ep[name] for ep in timed])
                  for name in ("commit_tps_wall", "setup_s", "peak_rss_mb")}
        values["op_ok_frac"] = median([ep["committed"] / ep["offered"]
                                       for ep in timed])
        values.update({name: timed[0][name] for name in SIM_METRICS})
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    meta = {"workload": args.workload, "seed": args.seed,
            "threads": WORKLOADS[args.workload], "nproc": os.cpu_count(),
            "git_sha": git_sha(root),
            "ndebug": all(ep["ndebug"] for ep in episodes),
            "episodes_timed": len(timed), "episodes_traced": len(traced),
            "offered_per_episode": episodes[0]["offered"],
            "cross_offered_per_episode": episodes[0]["cross_offered"],
            "window_s": [round(ep["window_s"], 4) for ep in timed]}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
