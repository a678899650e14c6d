#include "chaos/runner.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "actors/methods.hpp"
#include "obs/export.hpp"

namespace hc::chaos {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Workload injected during the fault window: this many rounds of one
/// bottom-up release per non-root subnet plus one top-down transfer.
constexpr std::size_t kTransferRounds = 2;
constexpr TokenAmount kTransfer = TokenAmount::whole(3);
/// Surge shape: senders x messages flooded at the first child's node 0 by
/// the surge-overload scenario.
constexpr std::size_t kSurgeSenders = 8;
constexpr std::size_t kSurgeMessages = 200;
/// Stake each child validator joins with (collateral at risk per head).
constexpr TokenAmount kValidatorStake = TokenAmount::whole(5);
/// Every injected equivocation must be slashed within this many checkpoint
/// periods of simulated time (mean bound, checked against the
/// fraud_detection_latency_us histogram).
constexpr std::uint32_t kDetectBoundPeriods = 8;

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

core::SubnetParams chaos_params(const RunnerConfig& cfg) {
  core::SubnetParams p;
  p.name = "chaos";
  p.consensus = core::ConsensusType::kPoaRoundRobin;
  p.min_validator_stake = TokenAmount::whole(5);
  p.min_collateral = TokenAmount::whole(10);
  p.checkpoint_period = cfg.checkpoint_period;
  // Threshold 2 so checkpoint quorum needs shares from more than one
  // validator — signature collection itself is under test.
  p.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 2};
  return p;
}

consensus::EngineConfig chaos_engine(const RunnerConfig& cfg) {
  consensus::EngineConfig e;
  e.block_time = cfg.block_time;
  e.timeout_base = 3 * cfg.block_time;
  return e;
}

std::vector<NodeRef> whole_subnet(std::size_t subnet, std::size_t n) {
  std::vector<NodeRef> refs;
  refs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) refs.push_back(NodeRef{subnet, i});
  return refs;
}

/// Evaluate a Byzantine scenario's postconditions: exactly the guilty
/// slashed (once each), honest collateral untouched, deactivations as
/// expected, detection within the latency bound, local proof queues
/// drained. Appends violations to `report`.
void check_byzantine(runtime::Hierarchy& h, const RunnerConfig& cfg,
                     const ByzantineExpectation& exp,
                     InvariantReport& report) {
  std::map<std::size_t, std::vector<crypto::PublicKey>> expected;
  for (const NodeRef& ref : exp.guilty) {
    if (ref.subnet >= h.subnets().size()) {
      report.violations.push_back("byzantine expectation names subnet " +
                                  std::to_string(ref.subnet) +
                                  " absent from the topology");
      return;
    }
    expected[ref.subnet].push_back(
        h.subnets()[ref.subnet]->validator_keys.at(ref.node).public_key());
  }
  const auto deadline = static_cast<std::int64_t>(kDetectBoundPeriods) *
                        static_cast<std::int64_t>(cfg.checkpoint_period) *
                        static_cast<std::int64_t>(cfg.block_time);

  for (std::size_t s = 1; s < h.subnets().size(); ++s) {
    runtime::Subnet& subnet = *h.subnets()[s];
    const std::string tag = subnet.id.to_string();
    const auto parent_sca = subnet.parent->api_node().sca_state();
    const auto guilty_it = expected.find(s);
    const std::vector<crypto::PublicKey> no_guilty;
    const std::vector<crypto::PublicKey>& guilty =
        guilty_it == expected.end() ? no_guilty : guilty_it->second;
    const auto is_guilty = [&](const crypto::PublicKey& k) {
      return std::find(guilty.begin(), guilty.end(), k) != guilty.end();
    };

    // ---- exactly the guilty slashed, each exactly once
    std::vector<actors::SlashRecord> records;
    for (const auto& r : parent_sca.slash_records) {
      if (r.subnet == subnet.id) records.push_back(r);
    }
    if (records.size() != guilty.size()) {
      report.violations.push_back(
          tag + ": " + std::to_string(records.size()) +
          " slash records on-chain, expected " +
          std::to_string(guilty.size()));
    }
    for (const auto& key : guilty) {
      const auto hits = std::count_if(
          records.begin(), records.end(),
          [&](const actors::SlashRecord& r) { return r.signer == key; });
      if (hits != 1) {
        report.violations.push_back(tag + ": guilty validator slashed " +
                                    std::to_string(hits) +
                                    " times, expected exactly once");
      }
    }
    for (const auto& r : records) {
      if (!is_guilty(r.signer)) {
        report.violations.push_back(tag +
                                    ": slash record for an honest validator");
      }
    }

    // ---- guilty expelled from the SA, honest collateral untouched
    const auto sa = subnet.parent->api_node().sa_state(subnet.sa);
    if (!sa.has_value()) {
      report.violations.push_back(tag + ": SA state unreadable at parent");
      continue;
    }
    for (const auto& kp : subnet.validator_keys) {
      const crypto::PublicKey key = kp.public_key();
      const auto it = std::find_if(
          sa->validators.begin(), sa->validators.end(),
          [&](const actors::ValidatorInfo& v) { return v.pubkey == key; });
      if (is_guilty(key)) {
        if (it != sa->validators.end()) {
          report.violations.push_back(
              tag + ": slashed validator still in the SA validator set");
        }
      } else {
        if (it == sa->validators.end()) {
          report.violations.push_back(
              tag + ": honest validator missing from the SA validator set");
        } else if (it->stake != kValidatorStake) {
          report.violations.push_back(
              tag + ": honest validator stake changed to " +
              it->stake.to_string());
        }
      }
    }

    // ---- deactivation exactly where expected
    const auto* entry = parent_sca.find_subnet(subnet.sa);
    const bool want_inactive =
        std::find(exp.deactivated.begin(), exp.deactivated.end(), s) !=
        exp.deactivated.end();
    if (entry == nullptr) {
      report.violations.push_back(tag + ": no parent SCA entry");
    } else {
      const bool inactive = entry->status != core::SubnetStatus::kActive;
      if (inactive != want_inactive) {
        report.violations.push_back(
            tag + (inactive ? ": unexpectedly deactivated"
                            : ": expected deactivation did not happen"));
      }
    }

    // ---- detection: one closed fraud flow per slashed signer, and the
    // mean latency within the configured period bound
    const auto* hist = h.obs().metrics.find_histogram(
        "fraud_detection_latency_us", obs::Labels{{"subnet", tag}});
    const std::uint64_t detected = hist == nullptr ? 0 : hist->count();
    if (detected != guilty.size()) {
      report.violations.push_back(
          tag + ": " + std::to_string(detected) +
          " fraud detections recorded, expected " +
          std::to_string(guilty.size()));
    }
    if (hist != nullptr && hist->count() > 0 &&
        hist->sum() >
            deadline * static_cast<std::int64_t>(hist->count())) {
      report.violations.push_back(
          tag + ": mean fraud detection latency " +
          std::to_string(hist->sum() /
                         static_cast<std::int64_t>(hist->count())) +
          "us exceeds the " + std::to_string(kDetectBoundPeriods) +
          "-period bound");
    }

    // ---- every watcher's local proof queue drained by quiescence
    for (std::size_t i = 0; i < subnet.size(); ++i) {
      if (!subnet.alive(i)) continue;
      if (subnet.node(i).checkpoint_duty().pending_fraud_proofs() != 0) {
        report.violations.push_back(
            tag + " node " + std::to_string(i) +
            ": fraud proofs still pending after settle");
      }
    }
  }
}

}  // namespace

std::string RunResult::summary() const {
  std::string s = scenario + " seed=" + std::to_string(seed) +
                  (ok() ? " OK" : " FAIL");
  if (!converged) s += " (no quiescence before deadline)";
  if (!report.ok()) s += " [" + report.to_string() + "]";
  return s;
}

ChaosRunner::ChaosRunner(RunnerConfig config) : config_(std::move(config)) {}

RunResult ChaosRunner::run(const Scenario& scenario, std::uint64_t seed) {
  RunResult out;
  out.scenario = scenario.name;
  out.seed = seed;

  runtime::HierarchyConfig cfg;
  cfg.seed = seed;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params = chaos_params(config_);
  cfg.root_validators = config_.root_validators;
  cfg.root_engine = chaos_engine(config_);
  cfg.threads = config_.threads;
  cfg.mempool = config_.mempool;
  cfg.content_store = config_.content_store;
  cfg.durability.enabled = config_.durability;
  runtime::Hierarchy h(cfg);

  // ---- topology: children under the root, optional nested grandchild.
  for (std::size_t c = 0; c < config_.children; ++c) {
    auto spawned = h.spawn_subnet(h.root(), "c" + std::to_string(c),
                                  chaos_params(config_),
                                  config_.child_validators,
                                  kValidatorStake,
                                  chaos_engine(config_));
    if (!spawned.ok()) {
      out.report.violations.push_back("spawn failed: " +
                                      spawned.error().to_string());
      return out;
    }
  }
  if (config_.nested > 0 && config_.children > 0) {
    auto spawned = h.spawn_subnet(*h.subnets().at(1), "g0",
                                  chaos_params(config_),
                                  config_.child_validators,
                                  kValidatorStake,
                                  chaos_engine(config_));
    if (!spawned.ok()) {
      out.report.violations.push_back("nested spawn failed: " +
                                      spawned.error().to_string());
      return out;
    }
  }

  // ---- workload identities: a root spender, one funded user per non-root
  // subnet (funded top-down so the transfer machinery is primed), and one
  // root-side sink per subnet for bottom-up releases.
  auto root_user = h.make_user("chaos-root", TokenAmount::whole(500));
  if (!root_user.ok()) {
    out.report.violations.push_back("root user funding failed");
    return out;
  }
  struct LocalUser {
    runtime::Subnet* subnet;
    runtime::User user;
    Address sink;
  };
  std::vector<LocalUser> locals;
  for (std::size_t s = 1; s < h.subnets().size(); ++s) {
    runtime::Subnet* subnet = h.subnets()[s].get();
    LocalUser lu;
    lu.subnet = subnet;
    lu.user.key =
        crypto::KeyPair::from_label("chaos/user/" + std::to_string(s));
    lu.user.addr = Address::key(lu.user.key.public_key().to_bytes());
    lu.sink = Address::key(
        crypto::KeyPair::from_label("chaos/sink/" + std::to_string(s))
            .public_key()
            .to_bytes());
    auto r = h.send_cross(h.root(), root_user.value(), subnet->id,
                          lu.user.addr, TokenAmount::whole(40));
    if (!r.ok() || !r.value().ok()) {
      out.report.violations.push_back("seed funding for " +
                                      subnet->id.to_string() + " failed");
      return out;
    }
    if (!h.run_until(
            [&] {
              return subnet->api_node().balance(lu.user.addr) >=
                     TokenAmount::whole(40);
            },
            120 * sim::kSecond)) {
      out.report.violations.push_back("seed funding for " +
                                      subnet->id.to_string() + " stalled");
      return out;
    }
    locals.push_back(std::move(lu));
  }

  h.run_for(config_.warmup);

  // ---- arm the fault timeline and drive the workload through it.
  const FaultPlan plan = scenario.plan(config_);
  arm(plan, h);
  out.faults_injected = plan.events().size();

  const sim::Duration slice =
      config_.fault_window /
      static_cast<sim::Duration>(kTransferRounds + 1);
  for (std::size_t round = 0; round < kTransferRounds; ++round) {
    h.run_for(slice);
    // Bottom-up release from every non-root subnet toward its root sink.
    for (const LocalUser& lu : locals) {
      actors::CrossParams p;
      p.dest = core::SubnetId::root();
      p.to = lu.sink;
      (void)h.submit(*lu.subnet, lu.user, chain::kScaAddr,
                     actors::sca_method::kSendCross, encode(p),
                     kTransfer);
    }
    // One top-down transfer per round, rotating across subnets (a single
    // spender cannot overlap nonces within a round).
    if (!locals.empty()) {
      const LocalUser& lu = locals[round % locals.size()];
      actors::CrossParams p;
      p.dest = lu.subnet->id;
      p.to = lu.user.addr;
      (void)h.submit(h.root(), root_user.value(), chain::kScaAddr,
                     actors::sca_method::kSendCross, encode(p),
                     kTransfer);
    }
  }
  h.run_for(config_.fault_window -
            slice * static_cast<sim::Duration>(kTransferRounds));

  // ---- heal everything the plan may have left open, then let the system
  // quiesce. Recovery must need no outside help beyond the heal itself.
  h.network().heal_partition();
  h.network().clear_fault_rules();
  h.network().set_drop_rate(0.0);
  for (const auto& subnet : h.subnets()) {
    for (std::size_t i = 0; i < subnet->size(); ++i) {
      if (!subnet->alive(i)) {
        (void)h.restart_node(*subnet, i);
      } else {
        // Adversaries reform at heal time; their PAST fraud must still be
        // detected, slashed and settled before quiescence.
        subnet->node(i).checkpoint_duty().set_adversary(nullptr);
      }
    }
  }

  out.converged =
      h.run_until([&] { return quiescent(h); }, config_.settle);
  out.report = check_invariants(h);
  if (scenario.byzantine.has_value()) {
    check_byzantine(h, config_, *scenario.byzantine, out.report);
  } else {
    // Fault-only scenarios must end with ZERO slash records. The sharp
    // edge is crash/restart under durability: a recovered validator that
    // forgot its pre-crash votes could sign a conflicting checkpoint and
    // be slashed for equivocating with itself (DESIGN.md §15).
    for (std::size_t s = 1; s < h.subnets().size(); ++s) {
      runtime::Subnet& subnet = *h.subnets()[s];
      const auto parent_sca = subnet.parent->api_node().sca_state();
      for (const auto& r : parent_sca.slash_records) {
        if (r.subnet == subnet.id) {
          out.report.violations.push_back(
              subnet.id.to_string() +
              ": validator slashed in a fault-only scenario "
              "(self-equivocation after restart?)");
        }
      }
    }
  }

  // ---- deterministic exports: same seed => byte-identical.
  for (const auto& subnet : h.subnets()) {
    const auto& api = subnet->api_node();
    out.state_roots += subnet->id.to_string() + "@" +
                       std::to_string(api.chain().height()) + "=" +
                       api.state().flush().to_hex() + "\n";
  }
  out.metrics_json = obs::metrics_to_json(h.obs().metrics);
  std::uint64_t fp = fnv1a(kFnvOffset, out.state_roots);
  fp = fnv1a(fp, out.metrics_json);
  fp = fnv1a(fp, obs::trace_to_chrome_json(h.obs().tracer));
  out.fingerprint = fp;
  return out;
}

std::vector<RunResult> ChaosRunner::sweep(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::uint64_t>& seeds) {
  std::vector<RunResult> results;
  results.reserve(scenarios.size() * seeds.size());
  for (const Scenario& scenario : scenarios) {
    for (const std::uint64_t seed : seeds) {
      results.push_back(run(scenario, seed));
    }
  }
  return results;
}

std::vector<Scenario> ChaosRunner::standard_scenarios() {
  std::vector<Scenario> out;

  out.push_back({"baseline", "no faults; invariants must hold trivially",
                 [](const RunnerConfig&) { return FaultPlan{}; }, {}});

  out.push_back(
      {"loss-20", "sustained 20% random loss across the whole window",
       [](const RunnerConfig& cfg) {
         FaultPlan p;
         p.drop_rate(0, 0.20);
         p.drop_rate(cfg.fault_window, 0.0);
         return p;
       },
       {}});

  out.push_back(
      {"partition-child",
       "first child subnet partitioned away across a signing window",
       [](const RunnerConfig& cfg) {
         FaultPlan p;
         p.partition(cfg.fault_window / 8,
                     {whole_subnet(1, cfg.child_validators)});
         p.heal(5 * cfg.fault_window / 8);
         return p;
       },
       {}});

  out.push_back(
      {"crash-signer",
       "crash a checkpoint signer of the first child, restart mid-window",
       [](const RunnerConfig& cfg) {
         FaultPlan p;
         p.crash(cfg.fault_window / 8,
                 NodeRef{1, cfg.child_validators - 1});
         p.restart(cfg.fault_window / 2,
                   NodeRef{1, cfg.child_validators - 1});
         return p;
       },
       {}});

  out.push_back(
      {"crash-parent-view",
       "crash the root validator serving as parent view and api endpoint",
       [](const RunnerConfig& cfg) {
         FaultPlan p;
         p.crash(cfg.fault_window / 8, NodeRef{0, 0});
         p.restart(cfg.fault_window / 2, NodeRef{0, 0});
         return p;
       },
       {}});

  out.push_back(
      {"gray-validator",
       "one child validator on a lossy, slow, reordering line",
       [](const RunnerConfig& cfg) {
         net::LinkFault f;
         f.drop = 0.4;
         f.extra_delay = 30 * sim::kMillisecond;
         f.reorder_jitter = 20 * sim::kMillisecond;
         FaultPlan p;
         p.node_fault(cfg.fault_window / 8, NodeRef{1, 1}, f);
         p.clear_node_fault(3 * cfg.fault_window / 4, NodeRef{1, 1});
         return p;
       },
       {}});

  out.push_back(
      {"dup-reorder-root",
       "duplicate and reorder every transmission touching the root",
       [](const RunnerConfig& cfg) {
         net::LinkFault f;
         f.duplicate = 0.35;
         f.reorder_jitter = 10 * sim::kMillisecond;
         FaultPlan p;
         for (std::size_t s = 0; s < cfg.root_validators; ++s) {
           p.node_fault(cfg.fault_window / 8, NodeRef{0, s}, f);
           p.clear_node_fault(3 * cfg.fault_window / 4, NodeRef{0, s});
         }
         return p;
       },
       {}});

  out.push_back(
      {"surge-overload",
       "flood the first child's mempools well past their caps; bounded "
       "pools shed deterministically while real traffic still settles",
       [](const RunnerConfig& cfg) {
         FaultPlan p;
         p.surge(cfg.fault_window / 8, NodeRef{1, 0}, kSurgeSenders,
                 kSurgeMessages);
         return p;
       },
       {}});

  return out;
}

std::vector<Scenario> ChaosRunner::byzantine_scenarios() {
  std::vector<Scenario> out;

  {
    Scenario s;
    s.name = "byz-equivocate";
    s.description =
        "first child validator signs a second, conflicting checkpoint "
        "every period, reforming before heal";
    s.plan = [](const RunnerConfig& cfg) {
      FaultPlan p;
      p.byzantine(0, NodeRef{1, 0}, ByzantineBehavior::kEquivocate);
      p.clear_byzantine(3 * cfg.fault_window / 4, NodeRef{1, 0});
      return p;
    };
    s.byzantine = ByzantineExpectation{{NodeRef{1, 0}}, {}};
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "byz-forge-meta";
    s.description =
        "a child validator co-signs checkpoints whose CrossMsgMeta value "
        "is inflated (firewall-bound attack)";
    s.plan = [](const RunnerConfig&) {
      FaultPlan p;
      p.byzantine(0, NodeRef{1, 1}, ByzantineBehavior::kForgeMeta);
      return p;
    };
    s.byzantine = ByzantineExpectation{{NodeRef{1, 1}}, {}};
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "byz-collapse";
    s.description =
        "two of three validators of the second child equivocate; slashing "
        "drops collateral under min_collateral and deactivates the subnet";
    s.plan = [](const RunnerConfig&) {
      FaultPlan p;
      p.byzantine(0, NodeRef{2, 0}, ByzantineBehavior::kEquivocate);
      p.byzantine(0, NodeRef{2, 1}, ByzantineBehavior::kEquivocate);
      return p;
    };
    s.byzantine =
        ByzantineExpectation{{NodeRef{2, 0}, NodeRef{2, 1}}, {2}};
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "byz-withhold";
    s.description =
        "a child validator signs and submits nothing for the whole window "
        "(omission: not provable fraud, so nobody is slashed; the subnet "
        "must stay live through the remaining signers)";
    s.plan = [](const RunnerConfig&) {
      FaultPlan p;
      p.byzantine(0, NodeRef{1, 2}, ByzantineBehavior::kWithhold);
      return p;
    };
    s.byzantine = ByzantineExpectation{{}, {}};
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "byz-stale-resubmit";
    s.description =
        "a child validator replays the last accepted checkpoint every "
        "period; the SA must reject every replay without wedging";
    s.plan = [](const RunnerConfig&) {
      FaultPlan p;
      p.byzantine(0, NodeRef{1, 0}, ByzantineBehavior::kStaleResubmit);
      return p;
    };
    s.byzantine = ByzantineExpectation{{}, {}};
    out.push_back(std::move(s));
  }

  {
    Scenario s;
    s.name = "byz-equivocate-deep";
    s.description =
        "a grandchild validator equivocates at depth 2: the MIDDLE subnet "
        "slashes it while the root-edge pipeline runs undisturbed "
        "(requires nested = 1)";
    s.plan = [](const RunnerConfig&) {
      FaultPlan p;
      p.byzantine(0, NodeRef{3, 0}, ByzantineBehavior::kEquivocate);
      return p;
    };
    s.byzantine = ByzantineExpectation{{NodeRef{3, 0}}, {}};
    out.push_back(std::move(s));
  }

  return out;
}

std::vector<Scenario> ChaosRunner::recovery_scenarios() {
  using storage::DiskFault;
  std::vector<Scenario> out;

  // Crash one checkpoint signer of the first child with a given disk
  // outcome, restart it mid-window. Offsets match crash-signer so the two
  // sets stay comparable.
  const auto signer_crash = [](DiskFault::Kind kind) {
    return [kind](const RunnerConfig& cfg) {
      DiskFault f;
      f.kind = kind;
      FaultPlan p;
      p.crash(cfg.fault_window / 8, NodeRef{1, cfg.child_validators - 1}, f);
      p.restart(cfg.fault_window / 2,
                NodeRef{1, cfg.child_validators - 1});
      return p;
    };
  };

  out.push_back(
      {"recover-disk-intact",
       "crash a child signer with a lucky disk (everything reached the "
       "medium); restart must replay the full WAL and rejoin",
       signer_crash(DiskFault::Kind::kKeepAll), {}});

  out.push_back(
      {"recover-power-loss",
       "crash a child signer losing the un-fsynced suffix; restart "
       "recovers the fsynced prefix and catches the rest up over the net",
       signer_crash(DiskFault::Kind::kLoseSuffix), {}});

  out.push_back(
      {"recover-torn-tail",
       "crash leaves a torn half-written frame at the WAL tail; recovery "
       "must detect it, truncate, and never apply the torn record",
       signer_crash(DiskFault::Kind::kTornTail), {}});

  out.push_back(
      {"recover-bit-flip",
       "one seeded bit flips on the medium (fsynced region included); the "
       "CRC catches it and recovery keeps only the prefix before the "
       "damaged frame",
       signer_crash(DiskFault::Kind::kBitFlip), {}});

  out.push_back(
      {"recover-disk-lost",
       "the disk comes back empty; the validator rebuilds from genesis "
       "via network catch-up, and must still never double-sign",
       signer_crash(DiskFault::Kind::kLoseDisk), {}});

  out.push_back(
      {"recover-root-view",
       "crash the root validator serving parent views, torn WAL tail; "
       "children must keep checkpointing through the replicas and the "
       "recovered root must converge",
       [](const RunnerConfig& cfg) {
         DiskFault f;
         f.kind = DiskFault::Kind::kTornTail;
         FaultPlan p;
         p.crash(cfg.fault_window / 8, NodeRef{0, 0}, f);
         p.restart(cfg.fault_window / 2, NodeRef{0, 0});
         return p;
       },
       {}});

  out.push_back(
      {"recover-double",
       "two validators of the same child crash with different disk "
       "outcomes and restart in the same epoch; both must recover without "
       "conflicting with their pre-crash votes or each other",
       [](const RunnerConfig& cfg) {
         DiskFault lose;
         lose.kind = DiskFault::Kind::kLoseSuffix;
         DiskFault torn;
         torn.kind = DiskFault::Kind::kTornTail;
         FaultPlan p;
         p.crash(cfg.fault_window / 8, NodeRef{1, 0}, lose);
         p.crash(cfg.fault_window / 6,
                 NodeRef{1, cfg.child_validators - 1}, torn);
         p.restart(cfg.fault_window / 2, NodeRef{1, 0});
         p.restart(cfg.fault_window / 2,
                   NodeRef{1, cfg.child_validators - 1});
         return p;
       },
       {}});

  return out;
}

}  // namespace hc::chaos
