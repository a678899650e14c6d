#include "net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "obs/profile.hpp"

namespace hc::net {

namespace {

double clamp_probability(double p) {
  if (std::isnan(p)) return 0.0;
  return std::clamp(p, 0.0, 1.0);
}

LinkFault sanitize(LinkFault f) {
  f.drop = clamp_probability(f.drop);
  f.duplicate = clamp_probability(f.duplicate);
  f.extra_delay = std::max<sim::Duration>(0, f.extra_delay);
  f.reorder_jitter = std::max<sim::Duration>(0, f.reorder_jitter);
  return f;
}

std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) |
         static_cast<std::uint64_t>(to);
}

/// Probability that at least one of two independent events fires.
double combine_prob(double a, double b) { return 1.0 - (1.0 - a) * (1.0 - b); }

/// Raise an atomic high-water mark. Max is order-insensitive, so the
/// resulting peak is identical across worker counts.
void raise_peak(std::atomic<std::uint64_t>& peak, std::uint64_t value) {
  std::uint64_t cur = peak.load(std::memory_order_relaxed);
  while (cur < value &&
         !peak.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kRandomLoss:
      return "random-loss";
    case DropReason::kNodeDown:
      return "node-down";
    case DropReason::kPartition:
      return "partition";
    case DropReason::kLinkRule:
      return "link-rule";
    case DropReason::kNodeQueueCap:
      return "node-queue-cap";
    case DropReason::kTopicQueueCap:
      return "topic-queue-cap";
  }
  return "unknown";
}

bool is_policy_shed(DropReason reason) {
  return reason == DropReason::kNodeQueueCap ||
         reason == DropReason::kTopicQueueCap;
}

Network::Network(sim::Scheduler& scheduler, sim::LatencyModel latency,
                 std::uint64_t seed, GossipConfig config, obs::Obs* obs)
    : scheduler_(scheduler),
      latency_(std::move(latency)),
      seed_(seed),
      config_(config),
      obs_(&obs::obs_or_default(obs)),
      m_sent_(&obs_->metrics.counter("net_messages_sent_total")),
      m_bytes_(&obs_->metrics.counter("net_bytes_sent_total")),
      m_bytes_physical_(&obs_->metrics.counter("net_bytes_physical_total")),
      m_delivered_(&obs_->metrics.counter("net_messages_delivered_total")),
      m_dropped_(&obs_->metrics.counter("net_messages_dropped_total")),
      m_duplicated_(&obs_->metrics.counter("net_messages_duplicated_total")),
      m_duplicates_(&obs_->metrics.counter("net_gossip_duplicates_total")),
      h_direct_latency_(&obs_->metrics.histogram(
          "net_delivery_latency_us", obs::Labels{{"kind", "direct"}})),
      h_gossip_latency_(&obs_->metrics.histogram(
          "net_delivery_latency_us", obs::Labels{{"kind", "gossip"}})) {
  if (config_.mesh_degree == 0) {
    throw std::invalid_argument(
        "GossipConfig::mesh_degree must be >= 1 (a zero-degree mesh never "
        "forwards anything)");
  }
  if (config_.node_queue.bounded() && !config_.node_queue.enabled()) {
    throw std::invalid_argument(
        "NodeQueuePolicy sets queue caps without a service_time — an inline "
        "network has no queue to bound");
  }
  if (config_.node_queue.service_time < 0) {
    throw std::invalid_argument("NodeQueuePolicy::service_time must be >= 0");
  }
  for (std::uint8_t r = 0; r < kDropReasonCount; ++r) {
    m_dropped_by_reason_[r] = &obs_->metrics.counter(
        "net_messages_dropped_total",
        obs::Labels{{"reason", to_string(static_cast<DropReason>(r))}});
  }
  // Indexed by DropReason.
  constexpr std::uint64_t Stats::*kDropField[kDropReasonCount] = {
      &Stats::dropped_random_loss,    &Stats::dropped_node_down,
      &Stats::dropped_partition,      &Stats::dropped_link_rule,
      &Stats::dropped_node_queue_cap, &Stats::dropped_topic_queue_cap};
  ledger_ = {{&Stats::messages_sent, m_sent_, 0},
             {&Stats::bytes_sent, m_bytes_, 0},
             {&Stats::bytes_physical, m_bytes_physical_, 0},
             {&Stats::messages_delivered, m_delivered_, 0},
             {&Stats::messages_dropped, m_dropped_, 0},
             {&Stats::messages_duplicated, m_duplicated_, 0},
             {&Stats::gossip_duplicates, m_duplicates_, 0}};
  for (std::size_t r = 0; r < kDropReasonCount; ++r) {
    ledger_.push_back({kDropField[r], m_dropped_by_reason_[r], 0});
  }
  reset_stats();
  rngs_.push_back(std::make_unique<sim::Rng>(seed_));  // stream for domain 0
}

sim::Rng& Network::rng() {
  const sim::DomainId domain = scheduler_.current_domain();
  return domain < rngs_.size() ? *rngs_[domain] : *rngs_[0];
}

void Network::set_node_domain(NodeId node, sim::DomainId domain) {
  if (node_domains_.size() < nodes_.size()) {
    node_domains_.resize(nodes_.size(), 0);
  }
  node_domains_.at(node) = domain;
  // Grow one deterministic RNG stream per domain. Stream 0 keeps the
  // historical seeding; stream d is derived from (seed, d) so runs are
  // reproducible regardless of worker count.
  while (rngs_.size() <= domain) {
    const auto d = static_cast<std::uint64_t>(rngs_.size());
    rngs_.push_back(
        std::make_unique<sim::Rng>(seed_ ^ (0x9e3779b97f4a7c15ULL * d)));
  }
}

void Network::set_cross_domain_latency(sim::LatencyModel latency) {
  cross_latency_ = latency;
}

NodeId Network::add_node() {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.emplace_back();
  partition_group_.push_back(-1);
  return id;
}

void Network::set_direct_handler(NodeId node, DirectHandler handler) {
  nodes_.at(node).on_direct = std::move(handler);
}

void Network::set_topic_handler(NodeId node, TopicHandler handler) {
  nodes_.at(node).on_topic = std::move(handler);
}

void Network::set_drop_rate(double p) { drop_rate_ = clamp_probability(p); }

LinkFault Network::effective_fault(NodeId from, NodeId to) const {
  LinkFault out;
  if (!link_faults_.empty()) {
    auto it = link_faults_.find(link_key(from, to));
    if (it != link_faults_.end()) out = it->second;
  }
  if (!node_faults_.empty()) {
    for (const NodeId endpoint : {from, to}) {
      auto it = node_faults_.find(endpoint);
      if (it == node_faults_.end()) continue;
      out.drop = combine_prob(out.drop, it->second.drop);
      out.duplicate = combine_prob(out.duplicate, it->second.duplicate);
      out.extra_delay += it->second.extra_delay;
      out.reorder_jitter += it->second.reorder_jitter;
    }
  }
  return out;
}

std::optional<DropReason> Network::transmission_drop(NodeId from, NodeId to,
                                                     const LinkFault& fault) {
  if (nodes_[from].down || nodes_[to].down) return DropReason::kNodeDown;
  if (partitioned_ && partition_group_[from] != partition_group_[to]) {
    return DropReason::kPartition;
  }
  if (fault.drop > 0.0 && rng().chance(fault.drop)) {
    return DropReason::kLinkRule;
  }
  if (drop_rate_ > 0.0 && rng().chance(drop_rate_)) {
    return DropReason::kRandomLoss;
  }
  return std::nullopt;
}

void Network::count_drop(DropReason reason) {
  m_dropped_->inc();
  m_dropped_by_reason_[static_cast<std::uint8_t>(reason)]->inc();
}

sim::Duration Network::transmission_delay(NodeId from, NodeId to,
                                          const LinkFault& fault) {
  const sim::LatencyModel& link =
      cross_latency_ && node_domain(from) != node_domain(to) ? *cross_latency_
                                                             : latency_;
  sim::Duration delay = link.sample(rng()) + fault.extra_delay;
  if (fault.reorder_jitter > 0) {
    delay += static_cast<sim::Duration>(rng().uniform(
        static_cast<std::uint64_t>(fault.reorder_jitter) + 1));
  }
  return delay;
}

void Network::run_direct_delivery(NodeId to, NodeId from,
                                  const Bytes& payload) {
  Node& node = nodes_[to];
  if (node.down || !node.on_direct) return;
  m_delivered_->inc();
  static const obs::PhaseId deliver_phase =
      obs::Profiler::instance().phase("net/deliver");
  obs::ProfileScope prof(deliver_phase);
  node.on_direct(from, payload);
}

void Network::run_gossip_delivery(NodeId to, const std::string& topic,
                                  const Envelope& payload, NodeId origin,
                                  std::uint64_t msg_id, int hops_left) {
  Node& node = nodes_[to];
  if (node.on_topic) {
    m_delivered_->inc();
    static const obs::PhaseId deliver_phase =
        obs::Profiler::instance().phase("net/deliver");
    obs::ProfileScope prof(deliver_phase);
    node.on_topic(origin, topic, payload);
  }
  if (hops_left <= 0) return;
  if (auto mit = node.mesh.find(topic); mit != node.mesh.end()) {
    for (NodeId peer : mit->second) {
      if (peer == origin) continue;
      gossip_deliver(to, peer, topic, payload, origin, msg_id, hops_left - 1);
    }
  }
}

void Network::enqueue_delivery(NodeId to, QueuedDelivery d) {
  Node& node = nodes_[to];
  const NodeQueuePolicy& policy = config_.node_queue;
  const std::size_t add = d.payload.size();
  if (policy.max_depth > 0 && node.queue.size() >= policy.max_depth) {
    count_drop(DropReason::kNodeQueueCap);
    return;
  }
  if (policy.max_bytes > 0 && node.queue_bytes + add > policy.max_bytes) {
    count_drop(DropReason::kNodeQueueCap);
    return;
  }
  if (d.is_gossip) {
    auto& depth = node.topic_depth[d.topic];
    if (policy.topic_max_depth > 0 && depth >= policy.topic_max_depth) {
      count_drop(DropReason::kTopicQueueCap);
      return;
    }
    ++depth;
  }
  node.queue_bytes += add;
  node.queue.push_back(std::move(d));
  raise_peak(queue_peak_depth_, node.queue.size());
  raise_peak(queue_peak_bytes_, node.queue_bytes);
  if (!node.draining) {
    node.draining = true;
    scheduler_.schedule_in(node_domain(to), policy.service_time,
                           [this, to] { drain_queue(to); });
  }
}

void Network::drain_queue(NodeId to) {
  Node& node = nodes_[to];
  if (node.queue.empty()) {
    node.draining = false;
    return;
  }
  QueuedDelivery d = std::move(node.queue.front());
  node.queue.pop_front();
  node.queue_bytes -= d.payload.size();
  if (d.is_gossip) {
    auto it = node.topic_depth.find(d.topic);
    if (it != node.topic_depth.end() && --it->second == 0) {
      node.topic_depth.erase(it);
    }
  }
  if (!node.down) {
    if (d.is_gossip) {
      run_gossip_delivery(to, d.topic, d.payload, d.from, d.msg_id,
                          d.hops_left);
    } else {
      run_direct_delivery(to, d.from, d.payload.bytes());
    }
  }
  if (node.queue.empty()) {
    node.draining = false;
    return;
  }
  scheduler_.schedule_in(node_domain(to), config_.node_queue.service_time,
                         [this, to] { drain_queue(to); });
}

void Network::deliver_direct(NodeId from, NodeId to, Envelope payload,
                             sim::Duration delay) {
  h_direct_latency_->observe(delay);
  scheduler_.schedule_in(
      node_domain(to), delay, [this, from, to, payload = std::move(payload)] {
        if (config_.node_queue.enabled()) {
          if (nodes_[to].down) return;
          QueuedDelivery d;
          d.is_gossip = false;
          d.from = from;
          d.payload = payload;
          enqueue_delivery(to, std::move(d));
          return;
        }
        run_direct_delivery(to, from, payload.bytes());
      });
}

void Network::send(NodeId from, NodeId to, Bytes payload) {
  assert(from < nodes_.size() && to < nodes_.size());
  // A direct send materializes exactly one copy; logical == physical here.
  m_sent_->inc();
  m_bytes_->inc(payload.size());
  m_bytes_physical_->inc(payload.size());
  const LinkFault fault = effective_fault(from, to);
  if (auto reason = transmission_drop(from, to, fault); reason.has_value()) {
    count_drop(*reason);
    return;
  }
  Envelope env(std::move(payload));
  deliver_direct(from, to, env, transmission_delay(from, to, fault));
  if (fault.duplicate > 0.0 && rng().chance(fault.duplicate)) {
    m_duplicated_->inc();
    deliver_direct(from, to, env, transmission_delay(from, to, fault));
  }
}

void Network::subscribe(NodeId node, const std::string& topic) {
  auto& t = topics_[topic];
  if (std::find(t.subscribers.begin(), t.subscribers.end(), node) !=
      t.subscribers.end()) {
    return;
  }
  t.subscribers.push_back(node);
  rebuild_meshes(topic);
}

void Network::unsubscribe(NodeId node, const std::string& topic) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) return;
  auto& subs = it->second.subscribers;
  subs.erase(std::remove(subs.begin(), subs.end(), node), subs.end());
  nodes_[node].mesh.erase(topic);
  rebuild_meshes(topic);
}

bool Network::subscribed(NodeId node, const std::string& topic) const {
  auto it = topics_.find(topic);
  if (it == topics_.end()) return false;
  const auto& subs = it->second.subscribers;
  return std::find(subs.begin(), subs.end(), node) != subs.end();
}

void Network::rebuild_meshes(const std::string& topic) {
  auto it = topics_.find(topic);
  if (it == topics_.end()) return;
  const auto& subs = it->second.subscribers;
  for (NodeId member : subs) {
    auto& mesh = nodes_[member].mesh[topic];
    mesh.clear();
    if (subs.size() <= 1) continue;
    if (subs.size() - 1 <= config_.mesh_degree) {
      // Small topic: full mesh.
      for (NodeId peer : subs) {
        if (peer != member) mesh.push_back(peer);
      }
      continue;
    }
    // Sample mesh_degree distinct peers.
    std::unordered_set<NodeId> chosen;
    while (chosen.size() < config_.mesh_degree) {
      const NodeId peer =
          subs[static_cast<std::size_t>(rng().uniform(subs.size()))];
      if (peer != member) chosen.insert(peer);
    }
    mesh.assign(chosen.begin(), chosen.end());
  }
}

void Network::publish(NodeId from, const std::string& topic, Bytes payload) {
  assert(from < nodes_.size());
  auto it = topics_.find(topic);
  if (it == topics_.end() || it->second.subscribers.empty()) return;
  if (nodes_[from].down) return;

  const std::uint64_t msg_id =
      next_msg_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t payload_size = payload.size();
  Envelope env(std::move(payload));  // the one materialization of this publish
  nodes_[from].seen.insert(msg_id);  // don't deliver to self later
  raise_peak(seen_peak_entries_, nodes_[from].seen.size());

  // Initial push: to the publisher's mesh if subscribed, otherwise to a
  // random sample of subscribers (a boundary node publishing into a foreign
  // subnet's topic contacts peers it learned via the DHT/discovery — here a
  // uniform sample stands in for that).
  std::vector<NodeId> targets;
  if (auto mit = nodes_[from].mesh.find(topic); mit != nodes_[from].mesh.end() &&
                                                !mit->second.empty()) {
    targets = mit->second;
  } else {
    const auto& subs = it->second.subscribers;
    const std::size_t want = std::min(config_.mesh_degree, subs.size());
    std::unordered_set<NodeId> chosen;
    std::size_t guard = 0;
    while (chosen.size() < want && guard++ < 64 * want) {
      const NodeId peer =
          subs[static_cast<std::size_t>(rng().uniform(subs.size()))];
      if (peer != from) chosen.insert(peer);
    }
    targets.assign(chosen.begin(), chosen.end());
  }
  if (!targets.empty()) {
    // Physical bytes: counted once per publish (each hop below re-counts
    // the payload as logical bytes only — the fan-out is pointer copies).
    m_bytes_physical_->inc(payload_size);
  }
  for (NodeId peer : targets) {
    gossip_deliver(from, peer, topic, env, from, msg_id, kMaxHops);
  }
}

void Network::schedule_gossip_hop(NodeId to, const std::string& topic,
                                  Envelope payload, NodeId origin,
                                  std::uint64_t msg_id, int hops_left,
                                  sim::Duration delay) {
  h_gossip_latency_->observe(delay);
  scheduler_.schedule_in(node_domain(to), delay, [this, to, topic,
                                                  payload = std::move(payload),
                                                  origin, msg_id, hops_left] {
    Node& node = nodes_[to];
    if (node.down) return;
    // Dedup before the queue caps: a copy of an already-seen message never
    // consumes queue space, and marking it seen here keeps the dedup cache
    // semantics identical whether or not queueing is enabled.
    if (!node.seen.insert(msg_id)) {
      m_duplicates_->inc();
      return;
    }
    raise_peak(seen_peak_entries_, node.seen.size());
    if (config_.node_queue.enabled()) {
      QueuedDelivery d;
      d.is_gossip = true;
      d.from = origin;
      d.topic = topic;
      d.payload = payload;
      d.msg_id = msg_id;
      d.hops_left = hops_left;
      enqueue_delivery(to, std::move(d));
      return;
    }
    run_gossip_delivery(to, topic, payload, origin, msg_id, hops_left);
  });
}

void Network::gossip_deliver(NodeId from, NodeId to, const std::string& topic,
                             const Envelope& payload, NodeId origin,
                             std::uint64_t msg_id, int hops_left) {
  m_sent_->inc();
  m_bytes_->inc(payload.size());
  const LinkFault fault = effective_fault(from, to);
  if (auto reason = transmission_drop(from, to, fault); reason.has_value()) {
    count_drop(*reason);
    return;
  }
  schedule_gossip_hop(to, topic, payload, origin, msg_id, hops_left,
                      transmission_delay(from, to, fault));
  if (fault.duplicate > 0.0 && rng().chance(fault.duplicate)) {
    m_duplicated_->inc();
    schedule_gossip_hop(to, topic, payload, origin, msg_id, hops_left,
                        transmission_delay(from, to, fault));
  }
}

Network::Stats Network::stats() const {
  Stats out;
  for (const Ledger& e : ledger_) out.*e.field = e.counter->value() - e.base;
  out.queue_peak_depth = queue_peak_depth_.load(std::memory_order_relaxed);
  out.queue_peak_bytes = queue_peak_bytes_.load(std::memory_order_relaxed);
  out.seen_peak_entries = seen_peak_entries_.load(std::memory_order_relaxed);
  return out;
}

void Network::reset_stats() {
  for (Ledger& e : ledger_) e.base = e.counter->value();
  queue_peak_depth_.store(0, std::memory_order_relaxed);
  queue_peak_bytes_.store(0, std::memory_order_relaxed);
  seen_peak_entries_.store(0, std::memory_order_relaxed);
}

void Network::set_node_down(NodeId node, bool down) {
  nodes_.at(node).down = down;
}

void Network::set_partition(const std::vector<std::vector<NodeId>>& groups) {
  std::fill(partition_group_.begin(), partition_group_.end(), -1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NodeId n : groups[g]) {
      partition_group_.at(n) = static_cast<int>(g);
    }
  }
  partitioned_ = true;
}

void Network::heal_partition() {
  partitioned_ = false;
  std::fill(partition_group_.begin(), partition_group_.end(), -1);
}

void Network::set_link_fault(NodeId from, NodeId to, LinkFault fault) {
  assert(from < nodes_.size() && to < nodes_.size());
  fault = sanitize(fault);
  if (!fault.active()) {
    clear_link_fault(from, to);
    return;
  }
  link_faults_[link_key(from, to)] = fault;
}

void Network::clear_link_fault(NodeId from, NodeId to) {
  link_faults_.erase(link_key(from, to));
}

void Network::set_node_fault(NodeId node, LinkFault fault) {
  assert(node < nodes_.size());
  fault = sanitize(fault);
  if (!fault.active()) {
    clear_node_fault(node);
    return;
  }
  node_faults_[node] = fault;
}

void Network::clear_node_fault(NodeId node) { node_faults_.erase(node); }

void Network::clear_fault_rules() {
  link_faults_.clear();
  node_faults_.clear();
}

void Network::reset_node(NodeId node) {
  Node& n = nodes_.at(node);
  n.on_direct = nullptr;
  n.on_topic = nullptr;
  n.seen.clear();
  n.mesh.clear();
  // Crash loses queued-but-unserviced deliveries. `draining` is left as-is:
  // an in-flight drain event finds the queue empty and clears it, and new
  // arrivals meanwhile ride that same pending drain.
  n.queue.clear();
  n.queue_bytes = 0;
  n.topic_depth.clear();
  // Withdraw from every topic (and re-knit the meshes left behind).
  for (auto& [topic, t] : topics_) {
    auto& subs = t.subscribers;
    const auto it = std::find(subs.begin(), subs.end(), node);
    if (it == subs.end()) continue;
    subs.erase(it);
    rebuild_meshes(topic);
  }
}

}  // namespace hc::net
