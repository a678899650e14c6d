// FaultPlan: a declarative fault timeline executed deterministically from
// the run seed (DESIGN.md §9).
//
// A plan is a list of scheduled events — per-link and per-node fault rules
// (drop / delay / duplicate / reorder), node crash with state loss and
// restart with resync, partitions and heals, global loss-rate changes —
// addressed by (subnet index, validator slot) so the same plan replays
// against any topology of compatible shape. arm() schedules every event on
// the hierarchy's discrete-event scheduler; because the scheduler and all
// fault dice share the run seed, two same-seed runs inject the identical
// fault timeline and produce byte-identical observability exports.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "runtime/hierarchy.hpp"

namespace hc::chaos {

/// Addresses one validator slot: `subnet` indexes Hierarchy::subnets()
/// (0 = root, then spawn order), `node` the validator slot within it.
/// Slots stay valid across crash/restart cycles.
struct NodeRef {
  std::size_t subnet = 0;
  std::size_t node = 0;
};

/// Checkpoint-duty attacks a plan can arm on a validator (DESIGN.md §10).
/// Each keeps its node honest everywhere but the checkpoint duty, and acts
/// only through the runtime::CheckpointAdversary hook.
enum class ByzantineBehavior : std::uint8_t {
  kNone = 0,
  /// Sign the honest cut AND a forged variant of it each period.
  kEquivocate,
  /// Sign nothing and never submit (omission; not provable fraud).
  kWithhold,
  /// Equivocate with a forged checkpoint carrying an inflated
  /// CrossMsgMeta value (a firewall-bound attack, paper §II).
  kForgeMeta,
  /// Re-submit the last parent-accepted checkpoint every period.
  kStaleResubmit,
};

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kCrash = 0,
    kRestart,
    kLinkFault,
    kClearLinkFault,
    kNodeFault,
    kClearNodeFault,
    kPartition,
    kHeal,
    kDropRate,
    kByzantine,
    kClearByzantine,
    kSurge,
  };

  sim::Duration at = 0;  ///< Offset from the instant the plan is armed.
  Kind kind = Kind::kDropRate;
  NodeRef a;  ///< Target (crash/restart/node/byzantine fault, link source).
  NodeRef b;  ///< Link destination (link-fault kinds only).
  net::LinkFault fault;
  /// Disk outcome at crash time (kCrash only; DESIGN.md §15). Ignored by
  /// Hierarchy unless durability is enabled. Default = power-loss model.
  storage::DiskFault disk;
  /// Partition groups; slots absent from every group stay connected.
  std::vector<std::vector<NodeRef>> groups;
  double drop_rate = 0.0;
  /// Adversary behavior armed on `a` (kByzantine only).
  ByzantineBehavior behavior = ByzantineBehavior::kNone;
  /// Surge shape (kSurge only): `surge_senders` fresh unfunded identities
  /// each submit `surge_messages` consecutive-nonce messages at `a`.
  std::size_t surge_senders = 0;
  std::size_t surge_messages = 0;
};

[[nodiscard]] const char* to_string(FaultEvent::Kind kind);

/// Builder for fault timelines. Offsets may be added in any order; the
/// scheduler orders execution (ties run in insertion order).
class FaultPlan {
 public:
  FaultPlan& crash(sim::Duration at, NodeRef n);
  /// Crash with an explicit disk outcome: torn tail, bit flip, total loss
  /// (storage::DiskFault::Kind). Only meaningful with durability enabled.
  FaultPlan& crash(sim::Duration at, NodeRef n, storage::DiskFault disk);
  FaultPlan& restart(sim::Duration at, NodeRef n);
  /// Install a rule on the directed link a -> b (a "gray link" when the
  /// rule is mostly drop).
  FaultPlan& link_fault(sim::Duration at, NodeRef a, NodeRef b,
                        net::LinkFault fault);
  FaultPlan& clear_link_fault(sim::Duration at, NodeRef a, NodeRef b);
  /// Install a rule on everything `n` sends or receives (gray node).
  FaultPlan& node_fault(sim::Duration at, NodeRef n, net::LinkFault fault);
  FaultPlan& clear_node_fault(sim::Duration at, NodeRef n);
  FaultPlan& partition(sim::Duration at, std::vector<std::vector<NodeRef>> groups);
  FaultPlan& heal(sim::Duration at);
  FaultPlan& drop_rate(sim::Duration at, double p);
  /// Arm an adversary behavior on validator `n` (its consensus duties stay
  /// honest; only checkpoint signing/submission misbehaves — see
  /// ByzantineBehavior).
  FaultPlan& byzantine(sim::Duration at, NodeRef n,
                       ByzantineBehavior behavior);
  /// Restore validator `n` to honest behavior.
  FaultPlan& clear_byzantine(sim::Duration at, NodeRef n);
  /// Flood validator `n` with `senders` x `messages_each` signed messages
  /// from fresh unfunded identities (an admission-control surge, DESIGN.md
  /// §14). Submission runs in the node's own scheduler lane, so the surge
  /// replays byte-identically at any thread count.
  FaultPlan& surge(sim::Duration at, NodeRef n, std::size_t senders,
                   std::size_t messages_each);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }

 private:
  /// Append an event and return it for the caller to fill in.
  FaultEvent& push(sim::Duration at, FaultEvent::Kind kind, NodeRef a = {});

  std::vector<FaultEvent> events_;
};

/// Schedule every event of `plan` against `hierarchy`, offsets relative to
/// now. Each applied event bumps chaos_faults_injected_total{kind=...} and
/// drops an instant marker on the "chaos" trace track. The hierarchy must
/// outlive its scheduler queue (it owns it, so this holds by construction).
void arm(const FaultPlan& plan, runtime::Hierarchy& hierarchy);

}  // namespace hc::chaos
