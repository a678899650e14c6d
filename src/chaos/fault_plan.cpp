#include "chaos/fault_plan.hpp"

#include <optional>
#include <string>

#include "actors/methods.hpp"

namespace hc::chaos {

const char* to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kCrash:
      return "crash";
    case FaultEvent::Kind::kRestart:
      return "restart";
    case FaultEvent::Kind::kLinkFault:
      return "link-fault";
    case FaultEvent::Kind::kClearLinkFault:
      return "clear-link-fault";
    case FaultEvent::Kind::kNodeFault:
      return "node-fault";
    case FaultEvent::Kind::kClearNodeFault:
      return "clear-node-fault";
    case FaultEvent::Kind::kPartition:
      return "partition";
    case FaultEvent::Kind::kHeal:
      return "heal";
    case FaultEvent::Kind::kDropRate:
      return "drop-rate";
    case FaultEvent::Kind::kByzantine:
      return "byzantine";
    case FaultEvent::Kind::kClearByzantine:
      return "clear-byzantine";
    case FaultEvent::Kind::kSurge:
      return "surge";
  }
  return "unknown";
}

FaultEvent& FaultPlan::push(sim::Duration at, FaultEvent::Kind kind,
                            NodeRef a) {
  FaultEvent& e = events_.emplace_back();
  e.at = at;
  e.kind = kind;
  e.a = a;
  return e;
}

FaultPlan& FaultPlan::crash(sim::Duration at, NodeRef n) {
  return crash(at, n, storage::DiskFault{});
}

FaultPlan& FaultPlan::crash(sim::Duration at, NodeRef n,
                            storage::DiskFault disk) {
  push(at, FaultEvent::Kind::kCrash, n).disk = disk;
  return *this;
}

FaultPlan& FaultPlan::restart(sim::Duration at, NodeRef n) {
  push(at, FaultEvent::Kind::kRestart, n);
  return *this;
}

FaultPlan& FaultPlan::link_fault(sim::Duration at, NodeRef a, NodeRef b,
                                 net::LinkFault fault) {
  FaultEvent& e = push(at, FaultEvent::Kind::kLinkFault, a);
  e.b = b;
  e.fault = fault;
  return *this;
}

FaultPlan& FaultPlan::clear_link_fault(sim::Duration at, NodeRef a,
                                       NodeRef b) {
  push(at, FaultEvent::Kind::kClearLinkFault, a).b = b;
  return *this;
}

FaultPlan& FaultPlan::node_fault(sim::Duration at, NodeRef n,
                                 net::LinkFault fault) {
  push(at, FaultEvent::Kind::kNodeFault, n).fault = fault;
  return *this;
}

FaultPlan& FaultPlan::clear_node_fault(sim::Duration at, NodeRef n) {
  push(at, FaultEvent::Kind::kClearNodeFault, n);
  return *this;
}

FaultPlan& FaultPlan::partition(sim::Duration at,
                                std::vector<std::vector<NodeRef>> groups) {
  push(at, FaultEvent::Kind::kPartition).groups = std::move(groups);
  return *this;
}

FaultPlan& FaultPlan::heal(sim::Duration at) {
  push(at, FaultEvent::Kind::kHeal);
  return *this;
}

FaultPlan& FaultPlan::drop_rate(sim::Duration at, double p) {
  push(at, FaultEvent::Kind::kDropRate).drop_rate = p;
  return *this;
}

FaultPlan& FaultPlan::byzantine(sim::Duration at, NodeRef n,
                                ByzantineBehavior behavior) {
  push(at, FaultEvent::Kind::kByzantine, n).behavior = behavior;
  return *this;
}

FaultPlan& FaultPlan::clear_byzantine(sim::Duration at, NodeRef n) {
  push(at, FaultEvent::Kind::kClearByzantine, n);
  return *this;
}

FaultPlan& FaultPlan::surge(sim::Duration at, NodeRef n, std::size_t senders,
                            std::size_t messages_each) {
  FaultEvent& e = push(at, FaultEvent::Kind::kSurge, n);
  e.surge_senders = senders;
  e.surge_messages = messages_each;
  return *this;
}

namespace {

const char* behavior_name(ByzantineBehavior b) {
  switch (b) {
    case ByzantineBehavior::kNone:
      return "none";
    case ByzantineBehavior::kEquivocate:
      return "equivocate";
    case ByzantineBehavior::kWithhold:
      return "withhold";
    case ByzantineBehavior::kForgeMeta:
      return "forge-meta";
    case ByzantineBehavior::kStaleResubmit:
      return "stale-resubmit";
  }
  return "unknown";
}

/// The adversary FaultPlan::byzantine arms: plays one behavior on the
/// validator's checkpoint duty.
class ByzantineAdversary final : public runtime::CheckpointAdversary {
 public:
  explicit ByzantineAdversary(ByzantineBehavior behavior)
      : behavior_(behavior) {}

  [[nodiscard]] bool withholds() const override {
    return behavior_ == ByzantineBehavior::kWithhold;
  }

  void on_cut(runtime::CheckpointDuty& duty,
              const core::Checkpoint& cp) override {
    duty.obs()
        .metrics
        .counter("node_byzantine_actions_total",
                 obs::Labels{{"node", std::to_string(duty.node())},
                             {"subnet", cp.source.to_string()},
                             {"behavior", behavior_name(behavior_)}})
        .inc();
    switch (behavior_) {
      case ByzantineBehavior::kEquivocate:
      case ByzantineBehavior::kForgeMeta:
        // The forged side must carry its content: no honest replica can
        // reconstruct it from its own chain, and the watcher needs both
        // contents to assemble a proof.
        duty.gossip_share_with_content(forge(cp));
        // Detection-latency flow: provable fraud injected here, closed when
        // a slash record for this (subnet, epoch, signer) lands on the
        // parent chain.
        duty.obs().tracer.flow_begin(
            runtime::fraud_flow_key(cp.source, cp.epoch, duty.address()),
            "fraud.detect", cp.source.to_string(),
            {{"behavior", behavior_name(behavior_)}});
        break;
      case ByzantineBehavior::kStaleResubmit:
        if (stale_.has_value()) {
          // The source's own SA on the parent chain.
          duty.submit_to_parent(stale_->checkpoint.source.actor(),
                                actors::sa_method::kSubmitCheckpoint,
                                encode(*stale_));
        }
        break;
      case ByzantineBehavior::kNone:
      case ByzantineBehavior::kWithhold:
        break;
    }
  }

  void on_accepted(const core::SignedCheckpoint& accepted) override {
    // Stash the just-accepted checkpoint with its full signature set and
    // replay this well-formed-but-stale submission every future period
    // (the SA must reject it on epoch staleness).
    if (behavior_ == ByzantineBehavior::kStaleResubmit) stale_ = accepted;
  }

 private:
  [[nodiscard]] core::Checkpoint forge(const core::Checkpoint& cp) const {
    core::Checkpoint forged = cp;
    if (behavior_ == ByzantineBehavior::kForgeMeta) {
      // Inflate the bottom-up value this checkpoint claims toward the
      // parent. Were it accepted, the parent would release more than the
      // child ever burned — the exact theft the firewall property (§II)
      // and the supply invariants must catch.
      if (forged.cross_meta.empty()) {
        core::CrossMsgMeta meta;
        meta.from = cp.source;
        meta.to = cp.source.parent().value_or(core::SubnetId{});
        meta.msg_count = 1;
        meta.value = TokenAmount::whole(1'000'000);
        forged.cross_meta.push_back(std::move(meta));
      } else {
        forged.cross_meta.front().value += TokenAmount::whole(1'000'000);
      }
    } else {
      // Plain equivocation: same (source, epoch), different block proof —
      // a second history for the same height.
      Encoder e;
      e.obj(cp.proof);
      forged.proof = Cid::of(CidCodec::kRaw, std::move(e).take());
    }
    return forged;
  }

  ByzantineBehavior behavior_;
  std::optional<core::SignedCheckpoint> stale_;
};

net::NodeId resolve(const runtime::Hierarchy& h, NodeRef ref) {
  return h.subnets().at(ref.subnet)->node_ids.at(ref.node);
}

std::string ref_string(NodeRef ref) {
  return std::to_string(ref.subnet) + "/" + std::to_string(ref.node);
}

void apply(const FaultEvent& e, runtime::Hierarchy& h) {
  net::Network& net = h.network();
  switch (e.kind) {
    case FaultEvent::Kind::kCrash:
      (void)h.crash_node(*h.subnets().at(e.a.subnet), e.a.node, e.disk);
      break;
    case FaultEvent::Kind::kRestart:
      (void)h.restart_node(*h.subnets().at(e.a.subnet), e.a.node);
      break;
    case FaultEvent::Kind::kLinkFault:
      net.set_link_fault(resolve(h, e.a), resolve(h, e.b), e.fault);
      break;
    case FaultEvent::Kind::kClearLinkFault:
      net.clear_link_fault(resolve(h, e.a), resolve(h, e.b));
      break;
    case FaultEvent::Kind::kNodeFault:
      net.set_node_fault(resolve(h, e.a), e.fault);
      break;
    case FaultEvent::Kind::kClearNodeFault:
      net.clear_node_fault(resolve(h, e.a));
      break;
    case FaultEvent::Kind::kPartition: {
      std::vector<std::vector<net::NodeId>> groups;
      groups.reserve(e.groups.size());
      for (const auto& g : e.groups) {
        std::vector<net::NodeId> ids;
        ids.reserve(g.size());
        for (NodeRef r : g) ids.push_back(resolve(h, r));
        groups.push_back(std::move(ids));
      }
      net.set_partition(groups);
      break;
    }
    case FaultEvent::Kind::kHeal:
      net.heal_partition();
      break;
    case FaultEvent::Kind::kDropRate:
      net.set_drop_rate(e.drop_rate);
      break;
    case FaultEvent::Kind::kByzantine:
    case FaultEvent::Kind::kClearByzantine: {
      // Arming survives on the node object only; a validator that crashes
      // and restarts comes back honest (state loss includes its malice).
      if (e.a.subnet >= h.subnets().size()) break;
      runtime::Subnet& subnet = *h.subnets()[e.a.subnet];
      if (subnet.alive(e.a.node)) {
        const bool arm = e.kind == FaultEvent::Kind::kByzantine &&
                         e.behavior != ByzantineBehavior::kNone;
        subnet.node(e.a.node).checkpoint_duty().set_adversary(
            arm ? std::make_unique<ByzantineAdversary>(e.behavior) : nullptr);
      }
      break;
    }
    case FaultEvent::Kind::kSurge: {
      if (e.a.subnet >= h.subnets().size()) break;
      runtime::Subnet& subnet = *h.subnets()[e.a.subnet];
      if (!subnet.alive(e.a.node)) break;
      runtime::SubnetNode& node = subnet.node(e.a.node);
      // Sign + submit inside the node's lane (post), like LoadGenerator:
      // the surge is per-subnet work and must replay identically at any
      // thread count. Senders are unfunded — the point is admission
      // pressure; whatever is admitted and included simply fails to pay.
      for (std::size_t s = 0; s < e.surge_senders; ++s) {
        const auto key = crypto::KeyPair::from_label(
            "chaos/surge/" + std::to_string(e.a.subnet) + "/" +
            std::to_string(s));
        const Address from = Address::key(key.public_key().to_bytes());
        node.post(0, [&node, key, from, n = e.surge_messages] {
          for (std::size_t i = 0; i < n; ++i) {
            chain::Message m;
            m.from = from;
            m.to = from;
            m.nonce = i;
            m.gas_limit = 1u << 22;
            m.gas_price = TokenAmount::atto(1);
            (void)node.submit_message(
                chain::SignedMessage::sign(std::move(m), key));
          }
        });
      }
      break;
    }
  }
}

}  // namespace

void arm(const FaultPlan& plan, runtime::Hierarchy& hierarchy) {
  for (const FaultEvent& event : plan.events()) {
    hierarchy.scheduler().schedule(event.at, [event, &hierarchy] {
      apply(event, hierarchy);
      obs::Obs& obs = hierarchy.obs();
      obs.metrics
          .counter("chaos_faults_injected_total",
                   obs::Labels{{"kind", to_string(event.kind)}})
          .inc();
      obs.tracer.instant(std::string("chaos.") + to_string(event.kind),
                         "chaos", {{"target", ref_string(event.a)}});
    });
  }
}

}  // namespace hc::chaos
