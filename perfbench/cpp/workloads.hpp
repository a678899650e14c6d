// The benchmark's three workloads: topology, configuration and the offered
// load, all derived from the seed. NOTES.md records why each one exists and
// which layers it is meant to stress.
//
// Load is an open loop in simulated time: every operation has a due time
// fixed before the run starts, independent of how fast the system commits.
// An operation is either a local transfer inside one subnet or a cross-net
// transfer (SCA SendCross) applied in another subnet. Each operation carries
// a value that is unique within the run (index + 1 atto), which lets the
// checker match it post hoc in the destination chain without any hook in
// the simulator.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/hierarchy.hpp"
#include "sim/rng.hpp"

namespace hc::perfbench {

/// Simulated slot: the PoA block time and the granularity at which the
/// driver offers load and advances the simulation.
inline constexpr sim::Duration kSlot = 100 * sim::kMillisecond;

/// User messages per block on every chain: 100 tx/s at 100 ms blocks.
inline constexpr std::size_t kBlockCap = 10;

/// Pre-funded cold recipient accounts per subnet, Address::id(1000 + j).
inline constexpr std::size_t kRecipients = 32;

/// One offered operation, before signing.
struct OpSpec {
  sim::Duration due = 0;   // offset into the load window
  std::uint32_t src = 0;   // subnet index (Hierarchy::subnets() order)
  std::uint32_t dst = 0;   // == src for a local transfer
  std::uint32_t sender = 0;     // hot account slot in src
  std::uint32_t recipient = 0;  // cold account slot in dst
};

struct CrashPlan {
  std::vector<std::uint32_t> subnets;  // one victim validator in each
  sim::Duration at = 0;                // offset into the load window
  sim::Duration down_for = 0;
};

struct Workload {
  std::string name;
  runtime::HierarchyConfig config;
  runtime::TreeSpec tree;
  sim::Duration load = 0;      // offered-load window
  sim::Duration drain = 0;     // fixed settling time after the last offer
  std::optional<CrashPlan> crash;
  std::vector<OpSpec> ops;     // sorted by due
};

namespace detail {

/// One chain: 100 ms blocks, checkpoint period 5, multisig threshold 1.
inline runtime::TreeSpec chain_spec(const std::string& name,
                                    core::ConsensusType consensus,
                                    std::size_t validators,
                                    std::size_t senders) {
  runtime::TreeSpec s;
  s.name = name;
  s.params.name = name;
  s.params.consensus = consensus;
  s.params.min_validator_stake = TokenAmount::whole(5);
  s.params.min_collateral = TokenAmount::whole(10);
  s.params.checkpoint_period = 5;
  s.params.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
  s.engine.block_time = kSlot;
  s.engine.timeout_base = 4 * kSlot;
  s.n_validators = validators;
  s.accounts = kRecipients;
  s.hot_accounts = senders;
  s.hot_balance = TokenAmount::whole(1000);
  return s;
}

inline runtime::HierarchyConfig base_config(std::uint64_t seed,
                                            std::size_t threads) {
  runtime::HierarchyConfig cfg;
  cfg.seed = seed;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  // Co-located validators inside a subnet, WAN links between subnets (the
  // paper's deployment); also the parallel executor's lookahead.
  cfg.cross_subnet_latency = runtime::HierarchyConfig::CrossSubnetLatency{
      50 * sim::kMillisecond, 10 * sim::kMillisecond};
  cfg.threads = threads;
  return cfg;
}

/// Hands out due times, round-robin senders and random recipients.
///
/// Within its slot, the k-th operation of a source subnet arrives at phase
/// frac(start + k * golden ratio), with a seeded start per source: arrivals
/// are spread evenly like a population of independent clients, without the
/// sampling noise of i.i.d. uniform offsets, which would otherwise dominate
/// the seed-to-seed spread of the latency percentiles.
class Planner {
 public:
  Planner(std::uint64_t seed, std::vector<std::size_t> senders_per_subnet)
      : rng_(seed), senders_(std::move(senders_per_subnet)),
        next_sender_(senders_.size(), 0), offered_(senders_.size(), 0) {
    for (std::size_t i = 0; i < senders_.size(); ++i) {
      start_.push_back(rng_.real());
    }
  }

  /// Offer one operation from `src` to `dst` during `slot`.
  void offer(std::vector<OpSpec>& out, std::size_t slot, std::uint32_t src,
             std::uint32_t dst) {
    constexpr double kGolden = 0.6180339887498949;
    const double phase = std::fmod(
        start_[src] + static_cast<double>(offered_[src]++) * kGolden, 1.0);
    OpSpec op;
    op.due = static_cast<sim::Duration>(slot) * kSlot +
             static_cast<sim::Duration>(phase * static_cast<double>(kSlot));
    op.src = src;
    op.dst = dst;
    op.sender =
        next_sender_[src]++ % static_cast<std::uint32_t>(senders_[src]);
    op.recipient = static_cast<std::uint32_t>(rng_.uniform(kRecipients));
    out.push_back(op);
  }

  [[nodiscard]] std::uint64_t pick(std::uint64_t bound) {
    return rng_.uniform(bound);
  }

 private:
  sim::Rng rng_;
  std::vector<std::size_t> senders_;
  std::vector<std::uint32_t> next_sender_;
  std::vector<std::uint64_t> offered_;
  std::vector<double> start_;
};

inline std::size_t slots(sim::Duration d) {
  return static_cast<std::size_t>(d / kSlot);
}

/// Subnet sender counts in Hierarchy::subnets() order (tree preorder).
inline void collect_senders(const runtime::TreeSpec& s,
                            std::vector<std::size_t>& out) {
  out.push_back(s.hot_accounts);
  for (const auto& c : s.children) collect_senders(c, out);
}

inline void finish(Workload& w, std::vector<OpSpec> ops) {
  std::stable_sort(ops.begin(), ops.end(),
                   [](const OpSpec& a, const OpSpec& b) {
                     return a.due < b.due;
                   });
  w.ops = std::move(ops);
}

}  // namespace detail

/// Root plus 16 PoA subnets (3 validators each). Each subnet is offered 9
/// local transfers per 100 ms block (90% of its 10-message cap) plus a
/// bottom-up trickle to the root.
inline Workload flat16(std::uint64_t seed, std::size_t threads,
                       sim::Duration load) {
  using detail::chain_spec;
  Workload w;
  w.name = "flat16";
  w.config = detail::base_config(seed, threads);
  w.tree = chain_spec("root", core::ConsensusType::kPoaRoundRobin, 3, 2);
  for (int i = 0; i < 16; ++i) {
    w.tree.children.push_back(chain_spec("s" + std::to_string(i),
                                         core::ConsensusType::kPoaRoundRobin,
                                         3, 6));
  }
  w.load = load;
  w.drain = 3 * sim::kSecond;

  std::vector<std::size_t> senders;
  detail::collect_senders(w.tree, senders);
  detail::Planner plan(seed, senders);
  std::vector<OpSpec> ops;
  for (std::size_t slot = 0; slot < detail::slots(load); ++slot) {
    for (std::uint32_t s = 1; s <= 16; ++s) {
      for (int k = 0; k < 9; ++k) plan.offer(ops, slot, s, s);
      if ((slot + s) % 5 == 0) plan.offer(ops, slot, s, 0);
    }
  }
  detail::finish(w, std::move(ops));
  return w;
}

/// Three-level PoA tree: root -> 4 districts -> 3 leaves each (17 subnets),
/// checkpoint period 5. Mostly cross-net traffic (top-down root -> any
/// subnet, bottom-up leaf -> root, leaf -> cousin leaf path messages) with
/// a light local-transfer background, all far below block capacity.
inline Workload xnet_tree(std::uint64_t seed, std::size_t threads,
                          sim::Duration load) {
  using detail::chain_spec;
  Workload w;
  w.name = "xnet-tree";
  w.config = detail::base_config(seed, threads);
  w.tree = chain_spec("root", core::ConsensusType::kPoaRoundRobin, 3, 4);
  for (int d = 0; d < 4; ++d) {
    runtime::TreeSpec district =
        chain_spec("d" + std::to_string(d),
                   core::ConsensusType::kPoaRoundRobin, 3, 4);
    for (int l = 0; l < 3; ++l) {
      district.children.push_back(chain_spec(
          district.name + "l" + std::to_string(l),
          core::ConsensusType::kPoaRoundRobin, 3, 4));
    }
    w.tree.children.push_back(std::move(district));
  }
  w.load = load;
  w.drain = 6 * sim::kSecond;

  // Preorder indices: root 0, district d at 1 + 4d, its leaves follow.
  std::vector<std::uint32_t> leaves;
  std::vector<std::uint32_t> district_of;  // per leaf
  std::vector<std::uint32_t> all;
  for (std::uint32_t d = 0; d < 4; ++d) {
    for (std::uint32_t l = 0; l < 3; ++l) {
      leaves.push_back(1 + 4 * d + 1 + l);
      district_of.push_back(d);
    }
  }
  for (std::uint32_t i = 0; i < 17; ++i) all.push_back(i);

  std::vector<std::size_t> senders;
  detail::collect_senders(w.tree, senders);
  detail::Planner plan(seed, senders);
  std::vector<OpSpec> ops;
  for (std::size_t slot = 0; slot < detail::slots(load); ++slot) {
    for (std::uint32_t s : all) {
      if ((slot + s) % 2 == 0) plan.offer(ops, slot, s, s);
    }
    for (int k = 0; k < 2; ++k) {
      plan.offer(ops, slot, 0, 1 + static_cast<std::uint32_t>(plan.pick(16)));
    }
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      if ((slot + i) % 2 == 0) {
        plan.offer(ops, slot, leaves[i], 0);
      } else {
        // Cousin: a leaf under another district.
        const std::uint32_t other_district =
            (district_of[i] + 1 + static_cast<std::uint32_t>(plan.pick(3))) % 4;
        const auto leaf = static_cast<std::uint32_t>(plan.pick(3));
        const std::uint32_t target = leaves[other_district * 3 + leaf];
        plan.offer(ops, slot, leaves[i], target);
      }
    }
  }
  detail::finish(w, std::move(ops));
  return w;
}

/// PoA root plus one Tendermint and one rrBFT subnet of 10 validators each,
/// durable (WAL, fsync every 4 blocks). Local load at half the block cap, a
/// bottom-up transfer to the root every other block, and a top-down trickle
/// into the rrBFT subnet (Tendermint heights whose proposal carries top-down
/// messages tend to end in view changes, see NOTES.md). Mid-window one
/// validator per BFT subnet crashes losing its un-fsynced WAL suffix and
/// restarts 1 s later.
inline Workload bft_wal(std::uint64_t seed, std::size_t threads,
                        sim::Duration load) {
  using detail::chain_spec;
  Workload w;
  w.name = "bft-wal";
  w.config = detail::base_config(seed, threads);
  w.config.durability.enabled = true;
  w.config.durability.fsync_every_blocks = 4;
  w.tree = chain_spec("root", core::ConsensusType::kPoaRoundRobin, 3, 2);
  w.tree.children.push_back(chain_spec(
      "tm", core::ConsensusType::kTendermint, 10, 6));
  w.tree.children.push_back(chain_spec(
      "rr", core::ConsensusType::kRoundRobinBft, 10, 6));
  w.load = load;
  w.drain = 3 * sim::kSecond;
  w.crash = CrashPlan{{1, 2}, (load / 2 / kSlot) * kSlot, sim::kSecond};

  std::vector<std::size_t> senders;
  detail::collect_senders(w.tree, senders);
  detail::Planner plan(seed, senders);
  std::vector<OpSpec> ops;
  for (std::size_t slot = 0; slot < detail::slots(load); ++slot) {
    for (std::uint32_t s = 1; s <= 2; ++s) {
      for (int k = 0; k < 5; ++k) plan.offer(ops, slot, s, s);
      if ((slot + s) % 2 == 0) plan.offer(ops, slot, s, 0);
      if (s == 2 && slot % 4 == 0) plan.offer(ops, slot, 0, s);
    }
  }
  detail::finish(w, std::move(ops));
  return w;
}

}  // namespace hc::perfbench
