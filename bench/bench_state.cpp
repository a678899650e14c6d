// S1 — cost of state commitment (DESIGN.md §12).
//
// Two questions, answered on synthetic trees of N actors:
//   1. What does flush() cost as a function of actor count and dirty
//      fraction — incremental (dirty-tracked, cached Merkle levels) versus
//      the seed's from-scratch rebuild (re-encode + rehash every leaf)?
//      Acceptance floor: >= 5x at N=10k, 1% dirty.
//   2. What does per-message rollback cost — journal undo-log revert versus
//      the seed's deep copy, moved back in place?
//
// Timings are google-benchmark's own console output. The sidecar
// (BENCH_state.metrics.json, one run labelled "all") carries only
// the deterministic commitment cost of one incremental flush per case:
// state_leaf_rehashes_per_flush and state_flush_cache_hits_per_flush. They
// do not depend on the iteration count google-benchmark chooses, so two
// default runs of one build write identical runs.
#include "bench_common.hpp"

#include "chain/state.hpp"

namespace hc::bench {
namespace {

using chain::ActorEntry;
using chain::StateTree;

/// The registry shared by every case, captured as one run when the binary
/// exits (in the destructor body, while both members are still alive).
struct StateSidecar {
  obs::MetricsRegistry reg;
  SidecarWriter out{"state"};
  ~StateSidecar() { out.capture(reg, "all", 0); }
};
StateSidecar sidecar;

obs::MetricsRegistry& registry() { return sidecar.reg; }

/// N accounts with distinct balances/nonces and a 32-byte state blob, so
/// leaf encoding cost is representative.
StateTree build_tree(std::size_t actors) {
  StateTree t;
  for (std::size_t i = 0; i < actors; ++i) {
    ActorEntry e;
    e.code = chain::kCodeAccount;
    e.balance = TokenAmount::atto(static_cast<std::int64_t>(1000 + i));
    e.nonce = i % 7;
    e.state = Bytes(32, static_cast<std::uint8_t>(i));
    t.set(Address::id(i), e);
  }
  return t;
}

/// Touch `k` actors spread evenly across the tree (pure balance mutation:
/// content-dirty, no membership change).
void mutate(StateTree& t, std::size_t actors, std::size_t k,
            std::uint64_t round) {
  const std::size_t stride = actors / k;
  for (std::size_t i = 0; i < k; ++i) {
    t.get_or_create(Address::id(i * stride + round % stride)).balance +=
        TokenAmount::atto(1);
  }
}

std::size_t dirty_leaves(std::size_t actors, std::int64_t per_mil) {
  const auto k = static_cast<std::size_t>(
      (static_cast<std::int64_t>(actors) * per_mil) / 1000);
  return k == 0 ? 1 : k;
}

std::string case_label(benchmark::State& state) {
  return "actors=" + std::to_string(state.range(0)) + ",dirty_pm=" +
         std::to_string(state.range(1));
}

/// The seed's commitment algorithm: re-encode every leaf in address order
/// and rebuild the whole Merkle tree, no cache anywhere.
Cid flush_from_scratch(const StateTree& t) {
  std::vector<Bytes> leaves;
  leaves.reserve(t.actor_count());
  for (const auto& [addr, entry] : t) {
    leaves.push_back(StateTree::leaf_bytes(addr, entry));
  }
  return Cid(CidCodec::kStateRoot, crypto::MerkleTree::root_of(leaves));
}

void state_flush_incremental(benchmark::State& state) {
  const auto actors = static_cast<std::size_t>(state.range(0));
  const std::size_t k = dirty_leaves(actors, state.range(1));
  state.SetLabel(case_label(state));
  const obs::Labels labels{{"case", case_label(state)}};

  StateTree t = build_tree(actors);
  (void)t.flush();  // warm: the cache starts clean, as after a block commit
  std::uint64_t round = 0;
  // The sidecar's one flush, set rather than added: google-benchmark calls
  // each case more than once, with iteration counts of its own choosing.
  const StateTree::CommitStats warm = t.commit_stats();
  mutate(t, actors, k, round++);
  (void)t.flush();
  const StateTree::CommitStats start = t.commit_stats();
  registry()
      .gauge("state_leaf_rehashes_per_flush", labels)
      .set(static_cast<std::int64_t>(start.leaf_rehashes -
                                     warm.leaf_rehashes));
  registry()
      .gauge("state_flush_cache_hits_per_flush", labels)
      .set(static_cast<std::int64_t>(start.flush_cache_hits -
                                     warm.flush_cache_hits));

  for (auto _ : state) {
    state.PauseTiming();
    mutate(t, actors, k, round++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(t.flush());
  }
  const auto& s = t.commit_stats();
  state.counters["dirty_leaves"] = static_cast<double>(k);
  state.counters["leaf_rehashes_per_flush"] = benchmark::Counter(
      static_cast<double>(s.leaf_rehashes - start.leaf_rehashes),
      benchmark::Counter::kAvgIterations);
  state.counters["node_hashes_per_flush"] = benchmark::Counter(
      static_cast<double>(s.node_hashes - start.node_hashes),
      benchmark::Counter::kAvgIterations);
}

void state_flush_scratch(benchmark::State& state) {
  const auto actors = static_cast<std::size_t>(state.range(0));
  const std::size_t k = dirty_leaves(actors, state.range(1));
  state.SetLabel(case_label(state));
  StateTree t = build_tree(actors);
  (void)t.flush();
  std::uint64_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    mutate(t, actors, k, round++);
    (void)t.flush();  // keep the incremental cache warm outside the clock
    state.ResumeTiming();
    benchmark::DoNotOptimize(flush_from_scratch(t));
  }
  state.counters["dirty_leaves"] = static_cast<double>(k);
}

void state_revert_journal(benchmark::State& state) {
  const auto actors = static_cast<std::size_t>(state.range(0));
  const std::size_t k = dirty_leaves(actors, state.range(1));
  state.SetLabel(case_label(state));
  StateTree t = build_tree(actors);
  (void)t.flush();
  std::uint64_t round = 0;
  for (auto _ : state) {
    t.journal_reset();
    const StateTree::JournalMark mark = t.journal_mark();
    mutate(t, actors, k, round++);
    t.journal_revert(mark);
    benchmark::DoNotOptimize(t.journal_depth());
  }
  state.counters["dirty_leaves"] = static_cast<double>(k);
}

void state_revert_snapshot(benchmark::State& state) {
  const auto actors = static_cast<std::size_t>(state.range(0));
  const std::size_t k = dirty_leaves(actors, state.range(1));
  state.SetLabel(case_label(state));
  StateTree t = build_tree(actors);
  (void)t.flush();
  std::uint64_t round = 0;
  for (auto _ : state) {
    StateTree snap = t.snapshot();  // the seed's per-message rollback path
    mutate(t, actors, k, round++);
    t = std::move(snap);
    benchmark::DoNotOptimize(t.actor_count());
  }
  state.counters["dirty_leaves"] = static_cast<double>(k);
}

// dirty_pm is the dirty fraction in per-mil: 1 = 0.1%, 10 = 1%, 100 = 10%.
#define HC_STATE_ARGS                                     \
  ArgNames({"actors", "dirty_pm"})                        \
      ->Args({1000, 10})                                  \
      ->Args({10000, 1})                                  \
      ->Args({10000, 10})                                 \
      ->Args({10000, 100})                                \
      ->Unit(benchmark::kMicrosecond)

BENCHMARK(state_flush_incremental)->HC_STATE_ARGS;
BENCHMARK(state_flush_scratch)->HC_STATE_ARGS;
BENCHMARK(state_revert_journal)->HC_STATE_ARGS;
BENCHMARK(state_revert_snapshot)->HC_STATE_ARGS;

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()
