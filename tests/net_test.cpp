// Unit tests for the simulated P2P network: direct sends, gossip pubsub
// propagation/dedup, fault injection (drops, crashes, partitions).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "net/network.hpp"

namespace hc::net {
namespace {

struct NetFixture : ::testing::Test {
  sim::Scheduler sched;
  Network net{sched, sim::LatencyModel(1000, 0), /*seed=*/1};

  std::vector<NodeId> add_nodes(int n) {
    std::vector<NodeId> ids;
    for (int i = 0; i < n; ++i) ids.push_back(net.add_node());
    return ids;
  }
};

/// Every Stats sum and the registry counter it is kept in.
struct SumCounter {
  std::uint64_t Network::Stats::*field;
  const char* family;
  const char* reason;  // the drop-reason label, or nullptr
};
constexpr SumCounter kSumCounters[] = {
    {&Network::Stats::messages_sent, "net_messages_sent_total", nullptr},
    {&Network::Stats::bytes_sent, "net_bytes_sent_total", nullptr},
    {&Network::Stats::bytes_physical, "net_bytes_physical_total", nullptr},
    {&Network::Stats::messages_delivered, "net_messages_delivered_total",
     nullptr},
    {&Network::Stats::messages_dropped, "net_messages_dropped_total",
     nullptr},
    {&Network::Stats::dropped_random_loss, "net_messages_dropped_total",
     "random-loss"},
    {&Network::Stats::dropped_node_down, "net_messages_dropped_total",
     "node-down"},
    {&Network::Stats::dropped_partition, "net_messages_dropped_total",
     "partition"},
    {&Network::Stats::dropped_link_rule, "net_messages_dropped_total",
     "link-rule"},
    {&Network::Stats::dropped_node_queue_cap, "net_messages_dropped_total",
     "node-queue-cap"},
    {&Network::Stats::dropped_topic_queue_cap, "net_messages_dropped_total",
     "topic-queue-cap"},
    {&Network::Stats::messages_duplicated, "net_messages_duplicated_total",
     nullptr},
    {&Network::Stats::gossip_duplicates, "net_gossip_duplicates_total",
     nullptr},
};

/// The registry counters behind Stats, read into one. These networks use
/// the process-wide registry, so only differences between two reads count.
Network::Stats registry_sums() {
  Network::Stats out;
  for (const SumCounter& sc : kSumCounters) {
    obs::Labels labels;
    if (sc.reason != nullptr) labels.add("reason", sc.reason);
    const obs::Counter* c =
        obs::default_obs().metrics.find_counter(sc.family, labels);
    out.*sc.field = c == nullptr ? 0 : c->value();
  }
  return out;
}

/// stats() equals, field for field, how far each registry counter moved
/// since `since` (a registry_sums() taken at the last reset or
/// construction): no increment reaches one ledger and misses the other.
void expect_stats_match_registry(const Network& net,
                                 const Network::Stats& since) {
  const Network::Stats stats = net.stats();
  const Network::Stats now = registry_sums();
  for (const SumCounter& sc : kSumCounters) {
    EXPECT_EQ(stats.*sc.field, now.*sc.field - since.*sc.field)
        << sc.family << (sc.reason != nullptr ? sc.reason : "");
  }
}

TEST_F(NetFixture, DirectSendDelivers) {
  auto ids = add_nodes(2);
  Bytes received;
  NodeId from_seen = 99;
  net.set_direct_handler(ids[1], [&](NodeId from, const Bytes& b) {
    from_seen = from;
    received = b;
  });
  net.send(ids[0], ids[1], to_bytes("hello"));
  sched.run_all();
  EXPECT_EQ(received, to_bytes("hello"));
  EXPECT_EQ(from_seen, ids[0]);
  EXPECT_EQ(sched.now(), 1000);  // latency applied
}

TEST_F(NetFixture, SendToNodeWithoutHandlerIsDropped) {
  auto ids = add_nodes(2);
  net.send(ids[0], ids[1], to_bytes("x"));
  sched.run_all();
  EXPECT_EQ(net.stats().messages_delivered, 0u);
}

TEST_F(NetFixture, PubSubReachesAllSubscribers) {
  auto ids = add_nodes(10);
  int deliveries = 0;
  for (NodeId id : ids) {
    net.subscribe(id, "subnet/root");
    net.set_topic_handler(id, [&](NodeId, const std::string& topic,
                                  const Envelope& b) {
      EXPECT_EQ(topic, "subnet/root");
      EXPECT_EQ(b.bytes(), to_bytes("block-1"));
      ++deliveries;
    });
  }
  net.publish(ids[0], "subnet/root", to_bytes("block-1"));
  sched.run_all();
  EXPECT_EQ(deliveries, 9);  // everyone but the publisher
}

TEST_F(NetFixture, PublisherNotDeliveredOwnMessage) {
  auto ids = add_nodes(3);
  int self_deliveries = 0;
  for (NodeId id : ids) net.subscribe(id, "t");
  net.set_topic_handler(ids[0], [&](NodeId, const std::string&, const Envelope&) {
    ++self_deliveries;
  });
  net.publish(ids[0], "t", to_bytes("m"));
  sched.run_all();
  EXPECT_EQ(self_deliveries, 0);
}

TEST_F(NetFixture, NonSubscriberCanPublishIntoTopic) {
  auto ids = add_nodes(4);
  // Nodes 1..3 subscribe; node 0 (foreign subnet) publishes in.
  int deliveries = 0;
  for (int i = 1; i < 4; ++i) {
    net.subscribe(ids[static_cast<std::size_t>(i)], "subnet/child");
    net.set_topic_handler(ids[static_cast<std::size_t>(i)],
                          [&](NodeId, const std::string&, const Envelope&) {
                            ++deliveries;
                          });
  }
  net.publish(ids[0], "subnet/child", to_bytes("push"));
  sched.run_all();
  EXPECT_EQ(deliveries, 3);
}

TEST_F(NetFixture, GossipPropagatesThroughLargeTopic) {
  // With mesh degree 6 and 64 subscribers, delivery requires multiple hops.
  auto ids = add_nodes(64);
  int deliveries = 0;
  for (NodeId id : ids) {
    net.subscribe(id, "big");
    net.set_topic_handler(
        id, [&](NodeId, const std::string&, const Envelope&) { ++deliveries; });
  }
  net.publish(ids[0], "big", to_bytes("wide"));
  sched.run_all();
  EXPECT_EQ(deliveries, 63);
  EXPECT_GT(net.stats().gossip_duplicates, 0u);  // real gossip overhead
  // Multi-hop: total elapsed time exceeds one hop's latency.
  EXPECT_GT(sched.now(), 1000);
}

TEST_F(NetFixture, TopicsAreIsolated) {
  auto ids = add_nodes(4);
  int wrong = 0;
  net.subscribe(ids[1], "a");
  net.subscribe(ids[2], "b");
  net.set_topic_handler(ids[2], [&](NodeId, const std::string&, const Envelope&) {
    ++wrong;
  });
  net.set_topic_handler(ids[1], [](NodeId, const std::string&, const Envelope&) {});
  net.publish(ids[0], "a", to_bytes("m"));
  sched.run_all();
  EXPECT_EQ(wrong, 0);
}

TEST_F(NetFixture, UnsubscribeStopsDelivery) {
  auto ids = add_nodes(3);
  int deliveries = 0;
  for (NodeId id : ids) {
    net.subscribe(id, "t");
    net.set_topic_handler(
        id, [&](NodeId, const std::string&, const Envelope&) { ++deliveries; });
  }
  net.unsubscribe(ids[2], "t");
  net.publish(ids[0], "t", to_bytes("m"));
  sched.run_all();
  EXPECT_EQ(deliveries, 1);  // only ids[1]
}

TEST_F(NetFixture, DownNodeNeitherSendsNorReceives) {
  auto ids = add_nodes(2);
  int deliveries = 0;
  net.set_direct_handler(ids[1], [&](NodeId, const Bytes&) { ++deliveries; });
  net.set_node_down(ids[1], true);
  net.send(ids[0], ids[1], to_bytes("x"));
  sched.run_all();
  EXPECT_EQ(deliveries, 0);
  EXPECT_EQ(net.stats().messages_dropped, 1u);

  net.set_node_down(ids[1], false);
  net.send(ids[0], ids[1], to_bytes("y"));
  sched.run_all();
  EXPECT_EQ(deliveries, 1);
}

TEST_F(NetFixture, CrashMidFlightMessageNotDelivered) {
  auto ids = add_nodes(2);
  int deliveries = 0;
  net.set_direct_handler(ids[1], [&](NodeId, const Bytes&) { ++deliveries; });
  net.send(ids[0], ids[1], to_bytes("x"));  // in flight (1ms latency)
  sched.schedule(500, [&] { net.set_node_down(ids[1], true); });
  sched.run_all();
  EXPECT_EQ(deliveries, 0);
}

TEST_F(NetFixture, PartitionBlocksCrossGroupTraffic) {
  auto ids = add_nodes(4);
  int deliveries = 0;
  net.set_direct_handler(ids[2], [&](NodeId, const Bytes&) { ++deliveries; });
  net.set_direct_handler(ids[1], [&](NodeId, const Bytes&) { ++deliveries; });
  net.set_partition({{ids[0], ids[1]}, {ids[2], ids[3]}});
  net.send(ids[0], ids[2], to_bytes("cross"));  // blocked
  net.send(ids[0], ids[1], to_bytes("within"));  // allowed
  sched.run_all();
  EXPECT_EQ(deliveries, 1);

  net.heal_partition();
  net.send(ids[0], ids[2], to_bytes("cross-again"));
  sched.run_all();
  EXPECT_EQ(deliveries, 2);
}

TEST_F(NetFixture, NodesOutsideAllPartitionGroupsStayConnected) {
  auto ids = add_nodes(4);
  int deliveries = 0;
  for (NodeId id : ids) {
    net.set_direct_handler(id, [&](NodeId, const Bytes&) { ++deliveries; });
  }
  // Only nodes 0 and 1 are in a named group; 2 and 3 are unassigned and
  // must keep talking to each other (but not to grouped nodes).
  net.set_partition({{ids[0], ids[1]}});
  net.send(ids[2], ids[3], to_bytes("peer-to-peer"));
  net.send(ids[2], ids[0], to_bytes("into the group"));
  sched.run_all();
  EXPECT_EQ(deliveries, 1);
}

TEST_F(NetFixture, DropRateLosesRoughlyThatFraction) {
  auto ids = add_nodes(2);
  int deliveries = 0;
  net.set_direct_handler(ids[1], [&](NodeId, const Bytes&) { ++deliveries; });
  net.set_drop_rate(0.5);
  for (int i = 0; i < 1000; ++i) net.send(ids[0], ids[1], to_bytes("m"));
  sched.run_all();
  EXPECT_GT(deliveries, 400);
  EXPECT_LT(deliveries, 600);
}

TEST_F(NetFixture, StatsTrackTraffic) {
  const Network::Stats start = registry_sums();
  auto ids = add_nodes(2);
  net.set_direct_handler(ids[1], [](NodeId, const Bytes&) {});
  net.send(ids[0], ids[1], Bytes(100, 0));
  sched.run_all();
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().bytes_sent, 100u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
  expect_stats_match_registry(net, start);
  net.reset_stats();
  EXPECT_EQ(net.stats().messages_sent, 0u);
  // After a reset the sums restart from zero while the registry counters
  // keep counting: stats() is the movement since the reset.
  const Network::Stats reset = registry_sums();
  net.send(ids[0], ids[1], Bytes(7, 0));
  sched.run_all();
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().bytes_sent, 7u);
  expect_stats_match_registry(net, reset);
}

// ------------------------------------------------- fault-rule injection

TEST_F(NetFixture, DropRateIsClampedToUnitInterval) {
  net.set_drop_rate(7.5);
  EXPECT_EQ(net.drop_rate(), 1.0);
  net.set_drop_rate(-2.0);
  EXPECT_EQ(net.drop_rate(), 0.0);
}

TEST(NetConfig, InvalidGossipConfigIsRejected) {
  sim::Scheduler sched;
  GossipConfig no_mesh;
  no_mesh.mesh_degree = 0;
  EXPECT_THROW(Network(sched, sim::LatencyModel(1000, 0), 1, no_mesh),
               std::invalid_argument);
}

// Each subnet is one scheduler domain: links inside a domain sample the
// base model, links between domains the cross-domain model.
TEST(NetLatency, CrossDomainLinksTakeTheCrossModel) {
  sim::Scheduler sched;
  Network net(sched, sim::LatencyModel(1000, 0), /*seed=*/1);
  net.set_cross_domain_latency(sim::LatencyModel(50000, 0));
  const sim::DomainId lane_a = sched.add_domain();
  const sim::DomainId lane_b = sched.add_domain();
  const NodeId a0 = net.add_node();
  const NodeId a1 = net.add_node();
  const NodeId b0 = net.add_node();
  net.set_node_domain(a0, lane_a);
  net.set_node_domain(a1, lane_a);
  net.set_node_domain(b0, lane_b);
  std::map<NodeId, sim::Time> arrivals;
  for (const NodeId n : {a0, a1, b0}) {
    net.set_direct_handler(n, [&, n](NodeId, const Bytes&) {
      arrivals[n] = sched.now();
    });
  }
  net.send(a0, a1, Bytes{1});
  net.send(a0, b0, Bytes{2});
  net.send(b0, a0, Bytes{3});
  sched.run_all();
  const std::map<NodeId, sim::Time> expected = {
      {a0, 50000}, {a1, 1000}, {b0, 50000}};
  EXPECT_EQ(arrivals, expected);
}

TEST_F(NetFixture, LinkFaultDropsOnlyThatDirection) {
  auto ids = add_nodes(2);
  int forward = 0;
  int backward = 0;
  net.set_direct_handler(ids[1], [&](NodeId, const Bytes&) { ++forward; });
  net.set_direct_handler(ids[0], [&](NodeId, const Bytes&) { ++backward; });
  LinkFault f;
  f.drop = 1.0;
  net.set_link_fault(ids[0], ids[1], f);
  for (int i = 0; i < 20; ++i) {
    net.send(ids[0], ids[1], to_bytes("fwd"));
    net.send(ids[1], ids[0], to_bytes("bwd"));
  }
  sched.run_all();
  EXPECT_EQ(forward, 0);
  EXPECT_EQ(backward, 20);
  EXPECT_EQ(net.stats().dropped_link_rule, 20u);

  net.clear_link_fault(ids[0], ids[1]);
  net.send(ids[0], ids[1], to_bytes("fwd"));
  sched.run_all();
  EXPECT_EQ(forward, 1);
}

TEST_F(NetFixture, NodeFaultDuplicatesTransmissions) {
  auto ids = add_nodes(2);
  int deliveries = 0;
  net.set_direct_handler(ids[1], [&](NodeId, const Bytes&) { ++deliveries; });
  LinkFault f;
  f.duplicate = 1.0;
  net.set_node_fault(ids[0], f);
  for (int i = 0; i < 10; ++i) net.send(ids[0], ids[1], to_bytes("m"));
  sched.run_all();
  EXPECT_EQ(deliveries, 20);
  EXPECT_EQ(net.stats().messages_duplicated, 10u);

  net.clear_node_fault(ids[0]);
  net.send(ids[0], ids[1], to_bytes("m"));
  sched.run_all();
  EXPECT_EQ(deliveries, 21);
}

TEST_F(NetFixture, ExtraDelayAndJitterSlowTheLink) {
  auto ids = add_nodes(2);
  sim::Time delivered_at = 0;
  net.set_direct_handler(ids[1],
                         [&](NodeId, const Bytes&) { delivered_at = sched.now(); });
  LinkFault f;
  f.extra_delay = 5000;
  net.set_link_fault(ids[0], ids[1], f);
  net.send(ids[0], ids[1], to_bytes("slow"));
  sched.run_all();
  // Base latency 1000 (zero jitter model) + 5000 fixed extra.
  EXPECT_EQ(delivered_at, 6000);
}

TEST_F(NetFixture, ReorderJitterCanInvertBackToBackSends) {
  auto ids = add_nodes(2);
  std::vector<std::string> order;
  net.set_direct_handler(ids[1], [&](NodeId, const Bytes& b) {
    order.push_back(std::string(b.begin(), b.end()));
  });
  LinkFault f;
  f.reorder_jitter = 50000;
  net.set_link_fault(ids[0], ids[1], f);
  for (int i = 0; i < 16; ++i) {
    net.send(ids[0], ids[1], to_bytes("a" + std::to_string(i)));
  }
  sched.run_all();
  ASSERT_EQ(order.size(), 16u);
  // With jitter far above the base latency, strict FIFO order is (nearly)
  // impossible; assert at least one inversion happened.
  std::vector<std::string> fifo;
  for (int i = 0; i < 16; ++i) fifo.push_back("a" + std::to_string(i));
  EXPECT_NE(order, fifo);
}

TEST_F(NetFixture, DropsAreAttributedToTheirReason) {
  const Network::Stats start = registry_sums();
  auto ids = add_nodes(4);
  net.set_direct_handler(ids[1], [](NodeId, const Bytes&) {});
  net.set_direct_handler(ids[3], [](NodeId, const Bytes&) {});
  for (NodeId id : ids) {
    net.set_topic_handler(id,
                          [](NodeId, const std::string&, const Envelope&) {});
  }

  auto drop_one_of_each = [&] {
    net.set_node_down(ids[1], true);
    net.send(ids[0], ids[1], to_bytes("to-down"));
    net.set_node_down(ids[1], false);

    net.set_partition({{ids[0], ids[1]}, {ids[2], ids[3]}});
    net.send(ids[0], ids[3], to_bytes("cross-partition"));
    net.heal_partition();

    LinkFault f;
    f.drop = 1.0;
    net.set_link_fault(ids[0], ids[3], f);
    net.send(ids[0], ids[3], to_bytes("gray"));
    net.clear_fault_rules();

    net.set_drop_rate(1.0);
    net.send(ids[0], ids[3], to_bytes("loss"));
    net.set_drop_rate(0.0);
  };
  drop_one_of_each();

  sched.run_all();
  EXPECT_EQ(net.stats().dropped_node_down, 1u);
  EXPECT_EQ(net.stats().dropped_partition, 1u);
  EXPECT_EQ(net.stats().dropped_link_rule, 1u);
  EXPECT_EQ(net.stats().dropped_random_loss, 1u);
  EXPECT_EQ(net.stats().messages_dropped, 4u);
  expect_stats_match_registry(net, start);

  // Injected duplicates on a direct send and on a gossip hop, then a reset
  // and a second round of every fault drop.
  LinkFault dup;
  dup.duplicate = 1.0;
  net.set_node_fault(ids[0], dup);
  net.send(ids[0], ids[3], to_bytes("twice"));
  for (NodeId id : ids) net.subscribe(id, "t");
  net.publish(ids[0], "t", to_bytes("gossip-twice"));
  sched.run_all();
  net.clear_fault_rules();
  EXPECT_GE(net.stats().messages_duplicated, 2u);
  EXPECT_GT(net.stats().gossip_duplicates, 0u);
  expect_stats_match_registry(net, start);

  net.reset_stats();
  const Network::Stats reset = registry_sums();
  drop_one_of_each();
  sched.run_all();
  EXPECT_EQ(net.stats().messages_dropped, 4u);
  EXPECT_EQ(net.stats().messages_duplicated, 0u);
  expect_stats_match_registry(net, reset);
}

TEST(NetQueue, PolicyShedsAreSeparatedFromFaultDrops) {
  // One fault drop (down endpoint) and a flood past a bounded delivery
  // queue must land in DIFFERENT ledgers: sheds are deliberate policy,
  // drops are injected faults (DESIGN.md §14).
  sim::Scheduler sched;
  GossipConfig gc;
  gc.node_queue.max_depth = 4;
  gc.node_queue.service_time = 100;
  Network net(sched, sim::LatencyModel(1000, 0), /*seed=*/1, gc);
  const Network::Stats start = registry_sums();
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  int delivered = 0;
  net.set_direct_handler(b, [&](NodeId, const Bytes&) { ++delivered; });

  net.set_node_down(b, true);
  net.send(a, b, to_bytes("to-down"));
  sched.run_all();
  net.set_node_down(b, false);

  // Zero jitter: all 12 arrive at the same instant, but the queue admits
  // only max_depth of them; the rest are shed at the receiver.
  for (int i = 0; i < 12; ++i) {
    net.send(a, b, to_bytes("m" + std::to_string(i)));
  }
  sched.run_all();

  const auto s = net.stats();
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(s.dropped_node_queue_cap, 8u);
  EXPECT_EQ(s.dropped_node_down, 1u);
  EXPECT_EQ(s.policy_sheds(), 8u);
  EXPECT_EQ(s.fault_drops(), 1u);
  EXPECT_EQ(s.messages_dropped, 9u);  // total still covers both ledgers
  EXPECT_EQ(s.queue_peak_depth, 4u);
  expect_stats_match_registry(net, start);
  EXPECT_TRUE(is_policy_shed(DropReason::kNodeQueueCap));
  EXPECT_TRUE(is_policy_shed(DropReason::kTopicQueueCap));
  EXPECT_FALSE(is_policy_shed(DropReason::kNodeDown));
  EXPECT_FALSE(is_policy_shed(DropReason::kRandomLoss));
}

TEST(NetQueue, TopicCapShedsGossipButLeavesDirectTrafficAlone) {
  sim::Scheduler sched;
  GossipConfig gc;
  gc.node_queue.topic_max_depth = 2;
  gc.node_queue.service_time = 100;
  Network net(sched, sim::LatencyModel(1000, 0), /*seed=*/1, gc);
  const Network::Stats start = registry_sums();
  std::vector<NodeId> ids;
  for (int i = 0; i < 2; ++i) ids.push_back(net.add_node());
  int gossiped = 0;
  int direct = 0;
  net.subscribe(ids[0], "t");
  net.subscribe(ids[1], "t");
  net.set_topic_handler(
      ids[1], [&](NodeId, const std::string&, const Envelope&) { ++gossiped; });
  net.set_direct_handler(ids[1], [&](NodeId, const Bytes&) { ++direct; });
  for (int i = 0; i < 6; ++i) {
    net.publish(ids[0], "t", to_bytes("g" + std::to_string(i)));
    net.send(ids[0], ids[1], to_bytes("d" + std::to_string(i)));
  }
  sched.run_all();
  EXPECT_EQ(gossiped, 2);
  EXPECT_EQ(direct, 6);  // per-topic cap never touches direct sends
  EXPECT_EQ(net.stats().dropped_topic_queue_cap, 4u);
  EXPECT_EQ(net.stats().policy_sheds(), 4u);
  EXPECT_EQ(net.stats().fault_drops(), 0u);
  expect_stats_match_registry(net, start);
}

TEST(NetQueue, CapsWithoutServiceTimeAreRejected) {
  sim::Scheduler sched;
  GossipConfig gc;
  gc.node_queue.max_depth = 8;  // bounded but service_time == 0
  EXPECT_THROW(Network(sched, sim::LatencyModel(1000, 0), 1, gc),
               std::invalid_argument);
}

TEST_F(NetFixture, ResetNodeForgetsSubscriptionsAndHandlers) {
  auto ids = add_nodes(3);
  int deliveries = 0;
  for (NodeId id : ids) {
    net.subscribe(id, "t");
    net.set_topic_handler(id, [&](NodeId, const std::string&, const Envelope&) {
      ++deliveries;
    });
  }
  net.reset_node(ids[2]);
  EXPECT_FALSE(net.subscribed(ids[2], "t"));
  net.publish(ids[0], "t", to_bytes("m"));
  sched.run_all();
  EXPECT_EQ(deliveries, 1);  // only ids[1] still listens
}

// ------------------------------------------------------------- envelopes

/// Minimal decodable payload for envelope tests.
struct Ping {
  std::uint64_t seq = 0;
  std::string note;
  void encode_to(Encoder& e) const { e.varint(seq).str(note); }
  static Result<Ping> decode_from(Decoder& d) {
    Ping p;
    HC_TRY(seq, d.varint());
    HC_TRY(note, d.str());
    p.seq = seq;
    p.note = std::move(note);
    return p;
  }
  bool operator==(const Ping&) const = default;
};

TEST(Envelope, DecodeOnceSharesOneObject) {
  const Ping ping{42, "shared"};
  Envelope env(encode(ping));
  const std::uint64_t misses0 = Envelope::decode_misses();
  const std::uint64_t hits0 = Envelope::decode_hits();

  auto first = env.decoded<Ping>();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first.value(), ping);
  // Ten more replicas decode the same envelope: zero additional parses,
  // and every reader sees the SAME object identity.
  for (int i = 0; i < 10; ++i) {
    auto again = env.decoded<Ping>();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().get(), first.value().get());
  }
  EXPECT_EQ(Envelope::decode_misses() - misses0, 1u);
  EXPECT_EQ(Envelope::decode_hits() - hits0, 10u);
}

TEST(Envelope, DecodeFailureIsNotCachedAsSuccess) {
  Envelope env(to_bytes("\xff\xff garbage"));
  EXPECT_FALSE(env.decoded<Ping>().ok());
  EXPECT_FALSE(env.decoded<Ping>().ok());  // still fails, no stale cache
}

TEST(Envelope, ContentHashIsMemoizedSha256) {
  const Bytes payload = to_bytes("hash-me");
  Envelope env(payload);
  const Digest& d1 = env.content_hash();
  EXPECT_EQ(d1, Sha256::hash(payload));
  EXPECT_EQ(&env.content_hash(), &d1);  // same storage, computed once
}

TEST(Envelope, GossipSubscribersShareOneDecode) {
  sim::Scheduler sched;
  Network net(sched, sim::LatencyModel(1000, 0), /*seed=*/5);
  std::vector<NodeId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(net.add_node());
  int deliveries = 0;
  Ping seen{};
  for (NodeId id : ids) {
    net.subscribe(id, "t");
    net.set_topic_handler(
        id, [&](NodeId, const std::string&, const Envelope& env) {
          auto decoded = env.decoded<Ping>();
          ASSERT_TRUE(decoded.ok());
          seen = *decoded.value();
          ++deliveries;
        });
  }
  const std::uint64_t misses0 = Envelope::decode_misses();
  net.publish(ids[0], "t", encode(Ping{7, "one-parse"}));
  sched.run_all();
  EXPECT_EQ(deliveries, 7);
  EXPECT_EQ(seen, (Ping{7, "one-parse"}));
  // 7 subscriber decodes of one published payload: exactly one parse.
  EXPECT_EQ(Envelope::decode_misses() - misses0, 1u);
}

TEST(Envelope, ConcurrentDecodeRaceYieldsOneValue) {
  // Cross-lane envelopes may race decoded<T>(); every thread must get a
  // valid, equal object and the cache must settle on one identity.
  for (int round = 0; round < 20; ++round) {
    Envelope env(encode(Ping{99, "raced"}));
    std::vector<std::thread> threads;
    std::array<std::shared_ptr<const Ping>, 4> results{};
    for (std::size_t t = 0; t < results.size(); ++t) {
      threads.emplace_back([&env, &results, t] {
        auto r = env.decoded<Ping>();
        if (r.ok()) results[t] = r.value();
      });
    }
    for (auto& th : threads) th.join();
    for (const auto& r : results) {
      ASSERT_NE(r, nullptr);
      EXPECT_EQ(*r, (Ping{99, "raced"}));
    }
    // After the race, later readers all see one settled identity.
    auto settled = env.decoded<Ping>();
    ASSERT_TRUE(settled.ok());
    auto again = env.decoded<Ping>();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(settled.value().get(), again.value().get());
  }
}

// -------------------------------------------- physical vs logical bytes

TEST_F(NetFixture, PhysicalBytesNeverExceedLogical) {
  auto ids = add_nodes(16);
  for (NodeId id : ids) {
    net.subscribe(id, "wide");
    net.set_topic_handler(id,
                          [](NodeId, const std::string&, const Envelope&) {});
  }
  net.publish(ids[0], "wide", Bytes(512, 0xab));
  net.send(ids[0], ids[1], Bytes(64, 0xcd));
  sched.run_all();
  const Network::Stats s = net.stats();
  EXPECT_GT(s.bytes_physical, 0u);
  // Fan-out hops are pointer copies: the payload materializes once per
  // publish/send but is accounted logically on every hop.
  EXPECT_LE(s.bytes_physical, s.bytes_sent);
  EXPECT_LT(s.bytes_physical, s.bytes_sent);  // gossip actually fanned out
}

TEST_F(NetFixture, PublishWithNoAudienceCountsNoPhysicalBytes) {
  auto ids = add_nodes(2);
  net.subscribe(ids[0], "lonely");  // publisher is the only subscriber
  net.publish(ids[0], "lonely", Bytes(128, 0x11));
  sched.run_all();
  EXPECT_EQ(net.stats().bytes_physical, 0u);
}

// ------------------------------------------------------ bounded seen set

TEST(SeenSet, BoundedAtTwoGenerations) {
  Network::SeenSet seen;
  const std::size_t cap = 2 * Network::SeenSet::kSeenHotMax;
  for (std::uint64_t id = 0; id < 10 * Network::SeenSet::kSeenHotMax; ++id) {
    EXPECT_TRUE(seen.insert(id));
    EXPECT_LE(seen.size(), cap);
    // A duplicate arriving within the generational window deduplicates.
    EXPECT_FALSE(seen.insert(id));
  }
  EXPECT_LE(seen.size(), cap);
}

TEST(SeenSet, ColdHitPromotesBackToHot) {
  Network::SeenSet seen;
  ASSERT_TRUE(seen.insert(1));
  // Rotate: fill hot so id 1 ages into the cold generation.
  for (std::uint64_t id = 2; id < Network::SeenSet::kSeenHotMax + 2; ++id) {
    (void)seen.insert(id);
  }
  // Still deduped (cold hit), and the hit re-hots it for another lifetime.
  EXPECT_FALSE(seen.insert(1));
  EXPECT_FALSE(seen.insert(1));
}

TEST_F(NetFixture, GossipTracksSeenPeak) {
  auto ids = add_nodes(8);
  for (NodeId id : ids) {
    net.subscribe(id, "t");
    net.set_topic_handler(id,
                          [](NodeId, const std::string&, const Envelope&) {});
  }
  for (int i = 0; i < 5; ++i) {
    net.publish(ids[0], "t", to_bytes("m" + std::to_string(i)));
  }
  sched.run_all();
  const Network::Stats s = net.stats();
  EXPECT_GT(s.seen_peak_entries, 0u);
  EXPECT_LE(s.seen_peak_entries, 2 * Network::SeenSet::kSeenHotMax);
}

TEST(NetDeterminism, SameSeedSameSchedule) {
  // Two identical networks must deliver identical event sequences.
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run);
    std::vector<sim::Time> times[2];
    for (int k = 0; k < 2; ++k) {
      sim::Scheduler sched;
      Network net(sched, sim::LatencyModel(1000, 700), /*seed=*/99);
      std::vector<NodeId> ids;
      for (int i = 0; i < 16; ++i) ids.push_back(net.add_node());
      for (NodeId id : ids) {
        net.subscribe(id, "t");
        net.set_topic_handler(id,
                              [&times, k, &sched](NodeId, const std::string&,
                                                  const Envelope&) {
                                times[k].push_back(sched.now());
                              });
      }
      net.publish(ids[0], "t", to_bytes("m"));
      sched.run_all();
    }
    EXPECT_EQ(times[0], times[1]);
    EXPECT_FALSE(times[0].empty());
  }
}

}  // namespace
}  // namespace hc::net
