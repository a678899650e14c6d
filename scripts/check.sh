#!/usr/bin/env bash
# Full check: Debug build with ASan+UBSan and the whole test suite, then a
# ThreadSanitizer build (TSan cannot combine with ASan) running the
# parallel-determinism suite and the chaos/Byzantine smokes at multiple
# worker-thread counts, then a plain optimized build running the
# bench-baseline regression gates, and last the perfbench smoke with the
# profiler checks on its traced episodes (DESIGN.md §13).
# Usage: scripts/check.sh [build-dir] [tsan-build-dir] [perf-build-dir]
#        (defaults: build-asan, build-tsan, build-perf)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"
TSAN_DIR="${2:-build-tsan}"
PERF_DIR="${3:-build-perf}"

SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"

cmake --build "$BUILD_DIR" -j "$(nproc)"

# Crypto stage first: the U256/field/scalar differential tests, GLV split,
# curve and Schnorr known-answer suites under the sanitizers. The folded
# reductions are __int128 carry chains and limb shifts, exactly where a
# UBSan finding (an over-wide shift, a bad index) would hide. The SHA-256
# suite runs the portable and SHA-NI kernels (DESIGN.md §16): unaligned
# 16-byte loads and the multi-block loop are where an overread would hide.
# The per-key comb suite (KeyTable) indexes a 63-entry table by bits
# gathered from both GLV halves, and its cache hands tables across threads.
# The SigCache suite drives its generational rotation and its shard locks.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(U256|Field|Scalar|Curve|Schnorr|SigCache|Sha256|KeyTable)\.'

# Codec stage: the field-list walker parses untrusted bytes from the
# network and the disk, so the codec suites (range rejections, count
# bounds, byte pins, decoder fuzzing) run under the sanitizers next —
# an out-of-bounds read in a decoder would hide here.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(Codec|CodecFuzz|WireBytes)\.'

# Chaos smoke next: the standard fault scenarios x 3 seeds (DESIGN.md §9)
# under the sanitizers — fault-handling regressions fail fast, before the
# full suite spends its time.
ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^ChaosSweep\.'

# Byzantine smoke: one equivocation scenario x 2 seeds under the
# sanitizers — the watcher/slashing path is pointer-heavy (gossip decode,
# proof assembly), so memory bugs there surface here first.
ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^ByzantineSmoke\.'

# Overload smoke (DESIGN.md §14): the bounded-mempool admission/eviction
# properties, the policy-vs-fault drop split in the network queue, and the
# 10x surge scenario — whose invariant report asserts every queue peak
# stayed under its cap — and the SCA top-down breaker's cap trip, shed and
# revert, all under the sanitizers, since shedding exercises the
# eviction/erase paths most likely to hide a use-after-free.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'MempoolOverload|OverloadSurge|NetQueue|TopDownBreaker'

# Recovery smoke (DESIGN.md §15): the durable-log corruption/property
# cases, the WAL round-trips, the engine vote-restore suite, the BFT
# engine suite (quorum crash/restart from the vote store), the full
# crash/restart recovery scenarios, the block-sync buffer/proof suite and
# the BFT crash-restart catch-up — all under the sanitizers. Recovery
# parses CRC-framed bytes off a (simulated) damaged disk and rebuilds
# chain state from them, which is exactly where an out-of-bounds read or
# use-after-free of a torn frame would hide.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'DurableLog|DurableStore|Wal\.|VoteRestore|/Bft\.|DurableRecovery|BlockSync|BftRecovery'

# State-commitment stage (DESIGN.md §12): the differential suite drives
# random mutate/remove/journal-revert/snapshot sequences against a
# from-scratch Merkle rebuild, and the incremental-tree sweeps hammer the
# digest-cache index arithmetic — the code most likely to hide an
# out-of-bounds read, so it runs under ASan explicitly. The execute-once
# suite moves kept post-state trees from build/validate into the chain
# store and drops them when the head moves — a use-after-move or a dangling
# kept entry would surface here. The state-memo suite checks that every
# decoded memo equals a fresh decode of the shared blob it rides with, and
# that journal reverts restore blob and memo together; in this Debug build
# every load_state memo hit across the whole suite is cross-checked too.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'StateCommitment|IncrementalMerkle|ExecuteOnce|StateMemo'

# Scale smoke (DESIGN.md §17): the interned-identity invariants (hash,
# codec, growth bounds), the static-tree boot + retention/viewer-gating
# suite, and the trimmed 85-subnet city bench — all under ASan. The intern
# table is lock-free chunked storage and the flyweight paths share one
# genesis tree across replicas, exactly where a dangling entry or
# use-after-free of a pruned block would hide.
ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'InternIdentity|InternGrowth|StaticTree|ChainStoreRetention'
cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_scale
(cd "$BUILD_DIR" && ./bench/bench_scale --threads 1 \
   --benchmark_filter='run_city/fanout:4')

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# ---- ThreadSanitizer stage (DESIGN.md §11) -------------------------------
# The ParallelExecutor runs subnet lanes on worker threads; TSan checks the
# cross-lane machinery (outboxes, barriers, shared metrics/trace/sigcache)
# under the real chaos workloads and a BFT crash/restart
# (BftCrashRestart). parallel_test sweeps 1/2/4 threads — its
# fingerprints cover state roots, so the incremental commitment's
# mutable-cache discipline (flush only from the owning lane, published
# snapshots read-only) is exercised here too.
TSAN_FLAGS="-fsanitize=thread -fno-sanitize-recover=all"

cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"

cmake --build "$TSAN_DIR" -j "$(nproc)"

ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  -R '^ParallelDeterminism\.'
# Shared head view (DESIGN.md §11): parent views share the committed head
# tree instead of copying it, so child lanes read a tree whose owner lane
# keeps committing; the execute-once suite runs on two worker lanes.
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  -R '^ExecuteOnce\.'
# Shared actor-state blobs (DESIGN.md §12): a parent's published head and
# the child lanes reading it share one immutable blob and decoded memo per
# actor; nothing may write a blob after construction.
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  -R '^StateMemo\.'
# Intern determinism (DESIGN.md §17): concurrent interning from worker
# lanes must be race-free AND unobservable (byte-identical fingerprints at
# 1/2/4 threads).
ctest --test-dir "$TSAN_DIR" --output-on-failure -R '^InternDeterminism\.'
# Per-key comb tables (DESIGN.md §16): four threads verify the same keys
# while the process-wide cache builds and publishes their tables. Every
# lane's block check takes a SigCache shard lock once per signature; four
# threads check overlapping valid and invalid triples through it.
ctest --test-dir "$TSAN_DIR" --output-on-failure \
  -R '^(KeyTable\.ConcurrentVerifyWhileBuilding|SigCache\.ConcurrentVerifyCachedAgreesWithVerify)$'
# Cross-subnet links (DESIGN.md §11): a static root + child tree at 4
# threads with WAN-class links between the subnets' lanes, across a child
# validator's crash and restart. Cross-lane deliveries are exactly what the
# lookahead protects: each must land at least one window later.
ctest --test-dir "$TSAN_DIR" --output-on-failure -R '^CrossSubnetLatency\.'
ctest --test-dir "$TSAN_DIR" --output-on-failure -R '^ChaosSweep\.'
ctest --test-dir "$TSAN_DIR" --output-on-failure -R '^ByzantineSmoke\.'

# ---- Perf regression gates (DESIGN.md §13) ------------------------------
# Plain optimized build. The simulated-time metrics must match the committed
# baselines within 10% (they are deterministic per seed, so on unchanged
# code the deltas are exactly zero). A cheap fig1 subset runs
# single-threaded first.
cmake -B "$PERF_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$PERF_DIR" -j "$(nproc)" --target bench_fig1_scaling \
  --target bench_overload --target bench_recovery --target bench_hotpath \
  --target bench_tab1_consensus --target bench_chaos --target bench_byzantine

PERF_OUT="$PERF_DIR/perf-gate"
rm -rf "$PERF_OUT" && mkdir -p "$PERF_OUT"
(cd "$PERF_OUT" && \
 ../bench/bench_fig1_scaling --threads 1 \
   --benchmark_filter='run_scaling/subnets:(0|2)/')
python3 scripts/bench_diff.py \
  BENCH_fig1.json "$PERF_OUT/BENCH_fig1_scaling.metrics.json"

# Fingerprint gate (DESIGN.md §9, §10): every standard and recovery chaos
# scenario and every Byzantine scenario x 3 seeds. Each run's fingerprint
# hashes its state roots, metrics and trace, so bench_diff fails on any
# behaviour change at all; a refactor must keep them byte-identical, and
# a declared behaviour change re-records both files.
(cd "$PERF_OUT" && ../bench/bench_chaos --threads 1 && \
 ../bench/bench_byzantine --threads 1)
python3 scripts/bench_diff.py \
  BENCH_chaos.json "$PERF_OUT/BENCH_chaos.metrics.json"
python3 scripts/bench_diff.py \
  BENCH_byzantine.json "$PERF_OUT/BENCH_byzantine.metrics.json"

# Overload regression gate (DESIGN.md §14): the full 1x/4x/10x sweep. The
# bench itself fails the run if any queue peak exceeds its cap; bench_diff
# then holds committed throughput, event count and commit p99 (admitted
# traffic must stay fast under surge) to the committed baseline.
(cd "$PERF_OUT" && ../bench/bench_overload --threads 1)
python3 scripts/bench_diff.py \
  BENCH_overload.json "$PERF_OUT/BENCH_overload.metrics.json"

# Recovery regression gate (DESIGN.md §15): WAL-replay vs disk-lost restart
# across chain lengths. The bench itself fails the run if a wal-replay
# recovery falls short of the pre-crash height (or a disk-lost one claims a
# recovered chain); bench_diff then holds event count and commit p99 —
# which bounds the simulated resync time — to the committed baseline.
(cd "$PERF_OUT" && ../bench/bench_recovery --threads 1)
python3 scripts/bench_diff.py \
  BENCH_recovery.json "$PERF_OUT/BENCH_recovery.metrics.json"

# Hot-path memory gate (DESIGN.md §16): saturating load on a small
# hierarchy. The bench itself fails when the envelope decode cache never
# hits or physical bytes exceed logical bytes; bench_diff then holds the
# signing-payload bytes encoded (alloc_bytes_total) and the decode hit/miss
# counts — deterministic per seed, so unchanged code diffs exactly zero —
# to the committed baseline.
(cd "$PERF_OUT" && ../bench/bench_hotpath --threads 1)
python3 scripts/bench_diff.py \
  BENCH_hotpath.json "$PERF_OUT/BENCH_hotpath.metrics.json"

# Consensus-engine gate (DESIGN.md §3): the tab1 rows run every engine
# (PoA, power lottery, Tendermint, rrBFT) at 4 and 16 validators under
# saturating load; bench_diff holds committed work, event count, commit
# p99 and signing-payload bytes (alloc_bytes_total) per engine to the
# committed baseline.
(cd "$PERF_OUT" && ../bench/bench_tab1_consensus --threads 1)
python3 scripts/bench_diff.py \
  BENCH_tab1.json "$PERF_OUT/BENCH_tab1_consensus.metrics.json"

# City-scale memory gate (DESIGN.md §17): the full 1111-subnet / 10⁶-
# account boot plus the 85-subnet trim. bench_diff holds the deterministic
# footprint (peak bytes/node, bytes/account) and committed/event counts to
# the committed baseline, and — since both files come from this machine
# class — gates the wall clock too (generous 75%: the city must never get
# an order of magnitude slower to boot).
cmake --build "$PERF_DIR" -j "$(nproc)" --target bench_scale
(cd "$PERF_OUT" && ../bench/bench_scale --threads 1)
python3 scripts/bench_diff.py --wall-gate 75 \
  BENCH_scale.json "$PERF_OUT/BENCH_scale.metrics.json"

# ---- perfbench smoke + profiler checks (DESIGN.md §13) --------------------
# Every BENCHMARK.json workload untraced and traced through perfbench/run.py
# (result shape, correctness gate, declared metrics and units), plus the
# flat16 1-vs-4-thread simulated-metric identity. The traced runs leave one
# profile per profiled episode under the perfbench build tree's traces/;
# profile_smoke.py then checks each episode's timed-window report: folded
# stacks partition attributed time, top-3 self-time coverage, overhead
# <= 5%. bft-wal concentrates in verify/dispatch/consensus (top-3 ~70%), so
# it carries the tighter 60% bound; flat16 and xnet-tree spread over more
# phases (top-3 ~62%), so they carry 50%.
TRACES="${CARGO_TARGET_DIR:-.bench_build}/traces"
rm -rf "$TRACES"
python3 perfbench/smoke.py
python3 scripts/profile_smoke.py --coverage 0.6 --max-overhead 0.05 \
  "$TRACES"/bft-wal-*.json
python3 scripts/profile_smoke.py --coverage 0.5 --max-overhead 0.05 \
  "$TRACES"/flat16-*.json "$TRACES"/xnet-tree-*.json
