// Simulated P2P network: gossip pubsub + point-to-point delivery.
//
// Substitution for libp2p/gossipsub (see DESIGN.md §2). Every subnet owns a
// pubsub topic named by its SubnetId (paper §III-A: "a new attack-resilient
// pubsub topic that peers use as the transport layer"); checkpoints, blocks,
// consensus votes and the content-resolution protocol all travel through
// here. The gossip layer is a real mesh — messages propagate hop by hop with
// per-hop sampled latency and dedup — so delivery times scale O(log n) in
// subscriber count like the deployed system, instead of being a magic
// broadcast.
//
// Fault injection (see DESIGN.md §9, driven by src/chaos): a global
// per-message drop probability, node crash/down flags, named partitions,
// and per-link / per-node fault rules that drop, delay, duplicate and
// reorder individual transmissions. Every drop is attributed to a reason in
// the metrics registry, which Stats reads, so chaos runs can tell random
// loss from partitions from gray links.
// Parallel execution (DESIGN.md §11): transmissions run inside a node's
// event lane; deliveries are scheduled into the destination node's lane
// (crossing lanes through the scheduler's outbox/barrier machinery), fault
// dice come from per-domain RNG streams, and the transport counters are
// atomic. Topology, fault rules and handlers mutate only from driver
// context or lane-0 (chaos) events, which run with every lane parked.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "net/envelope.hpp"
#include "obs/obs.hpp"
#include "sim/latency.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace hc::net {

using sim::NodeId;

/// Bounded per-receiver delivery queue (DESIGN.md §14). With a non-zero
/// `service_time` every arriving transmission lands in the destination
/// node's queue and is processed one per service interval; arrivals beyond
/// the caps are shed with a policy DropReason (kNodeQueueCap /
/// kTopicQueueCap), distinguishable from fault drops. All queue state lives
/// in the receiver's event lane, so shedding is deterministic at any worker
/// count. The default (`service_time == 0`) keeps the historical inline
/// delivery path, byte-identical to the unqueued network.
struct NodeQueuePolicy {
  /// Max queued deliveries per node (0 = unbounded).
  std::size_t max_depth = 0;
  /// Max queued payload bytes per node (0 = unbounded).
  std::size_t max_bytes = 0;
  /// Max queued gossip deliveries per (node, topic) (0 = unbounded).
  std::size_t topic_max_depth = 0;
  /// Per-delivery processing interval; 0 disables queueing entirely.
  sim::Duration service_time = 0;

  [[nodiscard]] bool enabled() const { return service_time > 0; }
  [[nodiscard]] bool bounded() const {
    return max_depth > 0 || max_bytes > 0 || topic_max_depth > 0;
  }
};

/// Tuning knobs for the gossip mesh. Validated by Network's constructor:
/// a zero mesh degree would silently disconnect the mesh, so it is rejected
/// with std::invalid_argument — as is a queue cap without a service time
/// (an inline network has no queue to bound).
struct GossipConfig {
  /// Mesh degree: peers a node eagerly forwards to per topic (>= 1).
  std::size_t mesh_degree = 6;
  /// Per-receiver delivery queue caps (disabled by default).
  NodeQueuePolicy node_queue;
};

/// A fault rule applied to transmissions on one directed link (or to every
/// link touching a node, when installed via set_node_fault). Probabilities
/// are clamped to [0,1]; negative durations are clamped to 0. A "gray" link
/// is simply a rule with a high drop rate and nothing else.
struct LinkFault {
  /// Additional drop probability on top of the global rate.
  double drop = 0.0;
  /// Fixed extra latency added to every transmission.
  sim::Duration extra_delay = 0;
  /// Probability that a transmission is delivered twice (the duplicate
  /// takes an independently sampled latency, so copies can reorder).
  double duplicate = 0.0;
  /// Per-transmission uniform extra delay in [0, reorder_jitter]; enough
  /// jitter reorders messages that were sent back-to-back on the link.
  sim::Duration reorder_jitter = 0;

  [[nodiscard]] bool active() const {
    return drop > 0.0 || extra_delay > 0 || duplicate > 0.0 ||
           reorder_jitter > 0;
  }
};

/// Why a transmission was dropped (Stats and metric label). The first four
/// are *fault* drops (injected failures); the queue-cap reasons are
/// *policy sheds* — deliberate, deterministic load shedding (DESIGN.md §14).
enum class DropReason : std::uint8_t {
  kRandomLoss = 0,     // global drop rate
  kNodeDown = 1,       // sender or receiver marked down
  kPartition = 2,      // endpoints in different partition groups
  kLinkRule = 3,       // per-link / per-node fault rule
  kNodeQueueCap = 4,   // receiver's delivery queue at depth/byte cap (policy)
  kTopicQueueCap = 5,  // receiver's per-topic gossip queue at cap (policy)
};

inline constexpr std::size_t kDropReasonCount = 6;

[[nodiscard]] const char* to_string(DropReason reason);
/// True for deliberate load-shedding reasons (queue caps), false for
/// injected fault drops.
[[nodiscard]] bool is_policy_shed(DropReason reason);

class Network {
 public:
  using DirectHandler =
      std::function<void(NodeId from, const Bytes& payload)>;
  /// Gossip deliveries hand subscribers the shared Envelope: N replicas of
  /// a topic decode a payload once between them (Envelope::decoded), and
  /// forwarded hops are pointer copies, not byte copies.
  using TopicHandler = std::function<void(
      NodeId from, const std::string& topic, const Envelope& payload)>;

  /// `obs` routes network metrics into a registry; nullptr falls back to
  /// the process-wide obs::default_obs(). Throws std::invalid_argument for
  /// an invalid GossipConfig (mesh_degree == 0, or queue caps without a
  /// service time).
  Network(sim::Scheduler& scheduler, sim::LatencyModel latency,
          std::uint64_t seed, GossipConfig config = {},
          obs::Obs* obs = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Register a new node; returns its dense id.
  NodeId add_node();

  /// Declare which scheduler domain (event lane) a node executes in.
  /// Deliveries to the node are scheduled into that lane, and fault dice
  /// for traffic emitted from the lane come from that domain's dedicated
  /// RNG stream. Defaults to domain 0. Call from driver context only.
  void set_node_domain(NodeId node, sim::DomainId domain);
  [[nodiscard]] sim::DomainId node_domain(NodeId node) const {
    return node < node_domains_.size() ? node_domains_[node] : sim::DomainId{0};
  }

  /// Sample every transmission between nodes of different scheduler
  /// domains from `latency` instead of the base model. Each subnet is one
  /// lane, so this gives WAN-class links between subnets over LAN-class
  /// ones inside a subnet. Driver context only.
  void set_cross_domain_latency(sim::LatencyModel latency);

  /// Install the handler invoked for point-to-point messages.
  void set_direct_handler(NodeId node, DirectHandler handler);
  /// Install the handler invoked for pubsub deliveries.
  void set_topic_handler(NodeId node, TopicHandler handler);

  /// Point-to-point send with sampled latency (may drop under faults).
  void send(NodeId from, NodeId to, Bytes payload);

  /// Topic membership. Subscribing re-wires the topic's gossip meshes.
  void subscribe(NodeId node, const std::string& topic);
  void unsubscribe(NodeId node, const std::string& topic);
  [[nodiscard]] bool subscribed(NodeId node, const std::string& topic) const;

  /// Publish into a topic. The publisher needs no subscription (boundary
  /// nodes publish into sibling subnets during content resolution).
  /// Delivery reaches subscribers via gossip hops; the publisher itself is
  /// NOT delivered its own message.
  void publish(NodeId from, const std::string& topic, Bytes payload);

  // -------------------------------------------------------------- faults

  /// Drop each transmission independently with probability p (clamped to
  /// [0,1]; NaN is treated as 0).
  void set_drop_rate(double p);
  [[nodiscard]] double drop_rate() const { return drop_rate_; }

  /// Mark a node down: it neither receives nor emits anything.
  void set_node_down(NodeId node, bool down);

  /// Split nodes into isolated groups; messages only flow within a group.
  /// Nodes absent from every group stay fully connected to each other.
  void set_partition(const std::vector<std::vector<NodeId>>& groups);
  void heal_partition();

  /// Install a fault rule on the directed link from -> to (replaces any
  /// previous rule on that link). An inactive rule clears the link.
  void set_link_fault(NodeId from, NodeId to, LinkFault fault);
  void clear_link_fault(NodeId from, NodeId to);
  /// Install a fault rule on every transmission that `node` sends or
  /// receives (gray node). Composes with link rules: probabilities combine
  /// independently, delays add.
  void set_node_fault(NodeId node, LinkFault fault);
  void clear_node_fault(NodeId node);
  /// Drop every link and node fault rule (partitions, down flags and the
  /// global drop rate are governed separately).
  void clear_fault_rules();

  /// Forget a node's transport state: handlers, subscriptions, gossip
  /// dedup cache and mesh links. Models a crash that loses all in-memory
  /// state; the id stays valid and a restarted owner re-wires it.
  void reset_node(NodeId node);

  // --------------------------------------------------------------- stats

  struct Stats {
    std::uint64_t messages_sent = 0;       // transmissions attempted
    // Logical bytes: payload size counted once per transmission (every
    // gossip hop), the pre-envelope semantics of net_bytes_sent_total.
    std::uint64_t bytes_sent = 0;
    // Physical bytes: payload size counted once per materialization (one
    // publish/send), however many hops fan out afterwards as pointer
    // copies. Always <= bytes_sent when anything was transmitted.
    std::uint64_t bytes_physical = 0;
    std::uint64_t messages_delivered = 0;  // handler invocations
    std::uint64_t messages_dropped = 0;    // lost to faults (total)
    // messages_dropped split by cause:
    std::uint64_t dropped_random_loss = 0;
    std::uint64_t dropped_node_down = 0;
    std::uint64_t dropped_partition = 0;
    std::uint64_t dropped_link_rule = 0;
    // Policy sheds (deliberate, deterministic — not injected faults):
    std::uint64_t dropped_node_queue_cap = 0;
    std::uint64_t dropped_topic_queue_cap = 0;
    std::uint64_t messages_duplicated = 0;  // fault-injected extra copies
    std::uint64_t gossip_duplicates = 0;    // dedup hits at receivers
    // High-water marks across all per-node delivery queues (0 when the
    // queue policy is disabled).
    std::uint64_t queue_peak_depth = 0;
    std::uint64_t queue_peak_bytes = 0;
    // High-water mark of any node's gossip dedup set (hot + cold
    // generations); bounded by construction at 2 * kSeenHotMax.
    std::uint64_t seen_peak_entries = 0;

    /// Deliberate load shedding (queue caps).
    [[nodiscard]] std::uint64_t policy_sheds() const {
      return dropped_node_queue_cap + dropped_topic_queue_cap;
    }
    /// Injected fault drops (loss, down nodes, partitions, link rules).
    [[nodiscard]] std::uint64_t fault_drops() const {
      return dropped_random_loss + dropped_node_down + dropped_partition +
             dropped_link_rule;
    }
  };
  /// Snapshot of the transport counters: the registry counters' deltas
  /// since construction or reset_stats(), plus the peaks. Sums are
  /// order-insensitive, so snapshots taken outside windows are identical
  /// across worker counts. The counters carry no per-network label:
  /// networks sharing one obs::Obs registry (every network built without
  /// one shares obs::default_obs()) share these sums, so a caller that
  /// needs one network's own counts must give it its own obs::Obs.
  [[nodiscard]] Stats stats() const;
  /// Restart every Stats sum and peak from zero (the registry counters,
  /// being monotonic, keep counting).
  void reset_stats();

  /// Current delivery-queue occupancy of one node (0 when queueing is
  /// disabled). Reads lane-local state: call from the node's lane or from
  /// driver context with lanes parked (tests, invariant checks).
  [[nodiscard]] std::size_t queue_depth(NodeId node) const {
    return nodes_.at(node).queue.size();
  }
  [[nodiscard]] std::size_t queue_bytes(NodeId node) const {
    return nodes_.at(node).queue_bytes;
  }

  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }

  /// The observability context this network reports into (never null).
  [[nodiscard]] obs::Obs& obs() { return *obs_; }

 private:
  /// One delivery parked in a receiver's bounded queue. `from` is the
  /// direct-send sender or the gossip origin.
  struct QueuedDelivery {
    bool is_gossip = false;
    NodeId from = 0;
    std::string topic;
    Envelope payload;
    std::uint64_t msg_id = 0;
    int hops_left = 0;
  };

 public:
  /// Generational gossip dedup set (same hot/cold discipline as SigCache):
  /// inserts land in `hot`; when hot reaches kSeenHotMax it ages into
  /// `cold` and the previous cold generation is dropped, bounding a node's
  /// dedup memory at 2 * kSeenHotMax ids regardless of run length. The
  /// duplicate-arrival window of a message (kMaxHops x per-hop latency) is
  /// far shorter than the time to see 2 * kSeenHotMax fresh ids, so an id
  /// is only ever evicted long after its last copy stopped circulating.
  class SeenSet {
   public:
    static constexpr std::size_t kSeenHotMax = 4096;

    /// Record `id`; returns true when it was not already present.
    bool insert(std::uint64_t id) {
      if (hot_.contains(id)) return false;
      if (cold_.contains(id)) {
        hot_.insert(id);  // promote: still circulating
        rotate_if_full();
        return false;
      }
      hot_.insert(id);
      rotate_if_full();
      return true;
    }

    [[nodiscard]] std::size_t size() const {
      return hot_.size() + cold_.size();
    }
    void clear() {
      hot_.clear();
      cold_.clear();
    }

   private:
    void rotate_if_full() {
      if (hot_.size() >= kSeenHotMax) {
        cold_ = std::move(hot_);
        hot_.clear();
      }
    }

    std::unordered_set<std::uint64_t> hot_;
    std::unordered_set<std::uint64_t> cold_;
  };

 private:
  /// Hop budget: a gossip message stops propagating after this many hops.
  static constexpr int kMaxHops = 16;

  struct Node {
    DirectHandler on_direct;
    TopicHandler on_topic;
    bool down = false;
    // Seen gossip message ids (dedup), bounded generationally.
    SeenSet seen;
    // Mesh peers per topic.
    std::unordered_map<std::string, std::vector<NodeId>> mesh;
    // Bounded delivery queue (NodeQueuePolicy). All three fields are
    // touched only from this node's event lane.
    std::deque<QueuedDelivery> queue;
    std::size_t queue_bytes = 0;
    std::unordered_map<std::string, std::size_t> topic_depth;
    bool draining = false;
  };

  struct Topic {
    std::vector<NodeId> subscribers;
  };

  /// Combined fault rule for one transmission: the directed link rule plus
  /// both endpoints' node rules (probabilities composed independently,
  /// delays summed, jitter summed). `active()` false when unfaulted.
  [[nodiscard]] LinkFault effective_fault(NodeId from, NodeId to) const;

  /// RNG stream for the calling context: one independent stream per
  /// scheduler domain, so lanes running on different workers never share
  /// dice. Stream 0 (driver / legacy single-lane use) is seeded exactly
  /// like the pre-lane shared stream.
  [[nodiscard]] sim::Rng& rng();

  /// Roll the dice for one transmission. Returns the drop reason, or
  /// nullopt when it goes through.
  [[nodiscard]] std::optional<DropReason> transmission_drop(
      NodeId from, NodeId to, const LinkFault& fault);
  void count_drop(DropReason reason);
  /// Latency sample plus fault-rule delay and reorder jitter.
  [[nodiscard]] sim::Duration transmission_delay(NodeId from, NodeId to,
                                                 const LinkFault& fault);
  void rebuild_meshes(const std::string& topic);
  void deliver_direct(NodeId from, NodeId to, Envelope payload,
                      sim::Duration delay);
  void gossip_deliver(NodeId from, NodeId to, const std::string& topic,
                      const Envelope& payload, NodeId origin,
                      std::uint64_t msg_id, int hops_left);
  void schedule_gossip_hop(NodeId to, const std::string& topic,
                           Envelope payload, NodeId origin,
                           std::uint64_t msg_id, int hops_left,
                           sim::Duration delay);
  // Bounded-queue path (receiver lane only). enqueue_delivery applies the
  // caps and sheds; drain_queue services one delivery per interval; the
  // run_* helpers hold the actual handler-invocation logic shared with the
  // inline (service_time == 0) path.
  void enqueue_delivery(NodeId to, QueuedDelivery d);
  void drain_queue(NodeId to);
  void run_direct_delivery(NodeId to, NodeId from, const Bytes& payload);
  void run_gossip_delivery(NodeId to, const std::string& topic,
                           const Envelope& payload, NodeId origin,
                           std::uint64_t msg_id, int hops_left);

  sim::Scheduler& scheduler_;
  sim::LatencyModel latency_;
  std::optional<sim::LatencyModel> cross_latency_;
  std::uint64_t seed_;
  // One RNG stream per scheduler domain (index = domain id). Stream 0 is
  // seeded exactly like the historical shared stream; further streams are
  // derived deterministically from (seed, domain).
  std::vector<std::unique_ptr<sim::Rng>> rngs_;
  GossipConfig config_;
  std::vector<Node> nodes_;
  std::vector<sim::DomainId> node_domains_;
  std::unordered_map<std::string, Topic> topics_;
  double drop_rate_ = 0.0;
  // partition_group_[node] = group id; -1 = unpartitioned.
  std::vector<int> partition_group_;
  bool partitioned_ = false;
  // Directed-link fault rules keyed by (from << 32) | to.
  std::unordered_map<std::uint64_t, LinkFault> link_faults_;
  // Per-node fault rules (applied to both directions).
  std::unordered_map<NodeId, LinkFault> node_faults_;
  // Gossip message ids are compared only for equality among copies of one
  // publish, so a racy-but-unique atomic counter is sufficient.
  std::atomic<std::uint64_t> next_msg_seq_{0};
  // CAS-max high-water marks behind Stats' peaks; max is order-insensitive,
  // so these stay identical across worker counts just like the sums.
  std::atomic<std::uint64_t> queue_peak_depth_{0};
  std::atomic<std::uint64_t> queue_peak_bytes_{0};
  std::atomic<std::uint64_t> seen_peak_entries_{0};

  obs::Obs* obs_;  // never null (defaults to &obs::default_obs())
  // The registry counters every Stats sum reads, resolved once at
  // construction.
  obs::Counter* m_sent_;
  obs::Counter* m_bytes_;
  obs::Counter* m_bytes_physical_;
  obs::Counter* m_delivered_;
  obs::Counter* m_dropped_;
  obs::Counter* m_dropped_by_reason_[kDropReasonCount];
  obs::Counter* m_duplicated_;
  obs::Counter* m_duplicates_;
  /// One Stats sum: its field, the counter it reads and that counter's
  /// value at construction or the last reset_stats(). The registry may be
  /// shared with other networks, so a sum is the delta since then.
  struct Ledger {
    std::uint64_t Stats::*field;
    const obs::Counter* counter;
    std::uint64_t base;
  };
  std::vector<Ledger> ledger_;
  obs::Histogram* h_direct_latency_;
  obs::Histogram* h_gossip_latency_;
};

}  // namespace hc::net
