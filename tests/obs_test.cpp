// Observability tests: histogram bucket edges, label canonicalization and
// registry aliasing, tracer span nesting and flow dedup, exporter
// well-formedness, and byte-identical exports across two same-seed runs.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "runtime/hierarchy.hpp"

namespace hc::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Labels, CanonicalFormIsSortedByKey) {
  Labels l{{"zz", "1"}, {"aa", "2"}, {"mm", "3"}};
  EXPECT_EQ(l.canonical(), "aa=2,mm=3,zz=1");
  EXPECT_EQ(Labels{}.canonical(), "");
}

TEST(Labels, InsertionOrderDoesNotMatter) {
  Labels a{{"subnet", "/root"}, {"node", "3"}};
  Labels b{{"node", "3"}, {"subnet", "/root"}};
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(Counter, IncrementAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("tx_total", {});
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("queue", {});
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {}, {10, 20, 30});
  ASSERT_EQ(h.buckets().size(), 4u);  // 3 bounds + overflow
  h.observe(10);                      // == bound: lands in bucket 0
  h.observe(11);                      // bucket 1
  h.observe(30);                      // bucket 2
  h.observe(31);                      // overflow
  h.observe(0);                       // bucket 0
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10 + 11 + 30 + 31);
}

TEST(MetricsRegistry, SameNameAndLabelsAliasesOneInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("msgs", {{"subnet", "/root"}});
  Counter& b = reg.counter("msgs", {{"subnet", "/root"}});
  Counter& other = reg.counter("msgs", {{"subnet", "/root/f0100"}});
  a.inc();
  b.inc();
  other.inc();
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.value(), 2u);
  EXPECT_EQ(other.value(), 1u);
  const Counter* found = reg.find_counter("msgs", {{"subnet", "/root"}});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 2u);
  EXPECT_EQ(reg.find_counter("msgs", {{"subnet", "/nope"}}), nullptr);
}

TEST(MetricsRegistry, HistogramBoundsFixedAtCreation) {
  MetricsRegistry reg;
  Histogram& a = reg.histogram("lat", {}, {1, 2});
  Histogram& b = reg.histogram("lat", {}, {100, 200, 300});  // ignored
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.buckets().size(), 3u);
}

// ----------------------------------------------------------------- tracer

TEST(Tracer, ScopedSpansNestAndClose) {
  Tracer t;
  std::int64_t clock = 0;
  t.set_clock([&] { return clock; });
  const std::size_t outer = t.begin("outer", "trackA");
  clock = 10;
  const std::size_t inner = t.begin("inner", "trackA");
  clock = 25;
  t.end(inner);
  clock = 40;
  t.end(outer);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[outer].start, 0);
  EXPECT_EQ(t.spans()[outer].end, 40);
  EXPECT_EQ(t.spans()[inner].start, 10);
  EXPECT_EQ(t.spans()[inner].end, 25);
}

TEST(Tracer, FlowEndsExactlyOnce) {
  Tracer t;
  std::int64_t clock = 100;
  t.set_clock([&] { return clock; });
  EXPECT_TRUE(t.flow_begin("k", "span", "track"));
  EXPECT_FALSE(t.flow_begin("k", "span", "track"));  // already open
  clock = 350;
  auto d = t.flow_end("k");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 250);
  // A second close — e.g. another replica observing the same committed
  // event — must be a no-op, and the flow must not reopen either.
  EXPECT_FALSE(t.flow_end("k").has_value());
  EXPECT_FALSE(t.flow_begin("k", "span", "track"));
  EXPECT_EQ(t.spans().size(), 1u);
}

TEST(Tracer, FlowEndPrefixClosesMatchingOpenFlows) {
  Tracer t;
  std::int64_t clock = 0;
  t.set_clock([&] { return clock; });
  t.flow_begin("buwin:/root/a:x", "w", "tr");
  t.flow_begin("buwin:/root/a:y", "w", "tr");
  t.flow_begin("buwin:/root/b:z", "w", "tr");
  clock = 7;
  t.flow_end_prefix("buwin:/root/a:");
  std::size_t closed = 0;
  for (const auto& s : t.spans()) {
    if (s.end >= 0) ++closed;
  }
  EXPECT_EQ(closed, 2u);
  EXPECT_TRUE(t.flow_open("buwin:/root/b:z"));
}

// -------------------------------------------------------------- exporters

TEST(Export, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(Export, MetricsJsonShape) {
  MetricsRegistry reg;
  reg.counter("msgs_total", {{"subnet", "/root"}}).inc(3);
  reg.histogram("lat_us", {}, {10}).observe(5);
  const std::string j = metrics_to_json(reg);
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"msgs_total\""), std::string::npos);
  EXPECT_NE(j.find("\"subnet=/root\":3"), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"count\":1"), std::string::npos);
}

// Satellite: instruments updated concurrently from worker lanes must merge
// into exactly the bytes a single-threaded run would export. Counters and
// histogram buckets commute; the trace exporter canonicalizes span order.
TEST(Export, ConcurrentLaneExportsMatchSequentialByteForByte) {
  constexpr int kLanes = 4;
  constexpr int kIters = 64;
  auto record = [](Obs& o, int lane, int i) {
    const std::string lane_s = std::to_string(lane);
    // Shared instruments (real cross-lane contention)...
    o.metrics.counter("msgs_total", {}).inc();
    o.metrics.histogram("shared_lat_us", {}, {10, 100, 1000})
        .observe((lane * kIters + i) % 1500);
    // ...and per-lane labelsets racing on the registry's find-or-create.
    o.metrics.counter("lane_msgs_total", {{"lane", lane_s}}).inc();
    const std::size_t span = o.tracer.begin("work", "lane-" + lane_s);
    o.tracer.end(span);
    const std::string key = "flow/" + lane_s + "/" + std::to_string(i);
    o.tracer.flow_begin(key, "xfer", "lane-" + lane_s);
    o.tracer.flow_end(key);
  };

  Obs concurrent;
  std::vector<std::thread> lanes;
  lanes.reserve(kLanes);
  for (int lane = 0; lane < kLanes; ++lane) {
    lanes.emplace_back([&, lane] {
      for (int i = 0; i < kIters; ++i) record(concurrent, lane, i);
    });
  }
  for (auto& t : lanes) t.join();

  Obs sequential;
  for (int lane = 0; lane < kLanes; ++lane) {
    for (int i = 0; i < kIters; ++i) record(sequential, lane, i);
  }

  EXPECT_EQ(metrics_to_json(concurrent.metrics),
            metrics_to_json(sequential.metrics));
  EXPECT_EQ(trace_to_chrome_json(concurrent.tracer),
            trace_to_chrome_json(sequential.tracer));
}

// Minimal structural check of the Chrome trace: balanced braces/brackets
// outside strings and the mandatory top-level keys. (No JSON parser in the
// test deps; chrome://tracing is the real consumer.)
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_str) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') in_str = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_str;
}

TEST(Export, ChromeTraceIsWellFormed) {
  Tracer t;
  std::int64_t clock = 0;
  t.set_clock([&] { return clock; });
  t.flow_begin("a", "phase.one", "subnetA");
  clock = 50;
  t.instant("tick", "subnetB");
  t.flow_end("a");
  const std::string j = trace_to_chrome_json(t);
  EXPECT_TRUE(json_balanced(j));
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(j.find("thread_name"), std::string::npos);
}

// ----------------------------------------------------- end-to-end runs

runtime::HierarchyConfig obs_config() {
  runtime::HierarchyConfig cfg;
  cfg.seed = 77;
  cfg.latency = sim::LatencyModel(2 * sim::kMillisecond, sim::kMillisecond);
  cfg.root_params.name = "obs";
  cfg.root_params.consensus = core::ConsensusType::kPoaRoundRobin;
  cfg.root_params.min_validator_stake = TokenAmount::whole(5);
  cfg.root_params.min_collateral = TokenAmount::whole(10);
  cfg.root_params.checkpoint_period = 5;
  cfg.root_params.checkpoint_policy =
      core::SignaturePolicy{core::SignaturePolicyKind::kMultiSig, 1};
  cfg.root_validators = 3;
  cfg.root_engine.block_time = 100 * sim::kMillisecond;
  return cfg;
}

// The JSON object of one metric family, from its key to its closing brace
// (empty when the family is absent).
std::string json_family(const std::string& json, const std::string& family) {
  const std::size_t start = json.find("\"" + family + "\":{");
  if (start == std::string::npos) return {};
  int depth = 0;
  for (std::size_t i = json.find('{', start); i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0) {
      return json.substr(start, i + 1 - start);
    }
  }
  return {};
}

// One scripted scenario: spawn a child, fund it top-down, release back
// bottom-up; return the two export artifacts.
struct RunArtifacts {
  std::string metrics_json;
  std::string chrome;
  bool ok = false;
};

RunArtifacts scripted_run() {
  RunArtifacts out;
  runtime::Hierarchy h(obs_config());
  core::SubnetParams child_params = obs_config().root_params;
  child_params.name = "obs-child";
  consensus::EngineConfig e;
  e.block_time = 100 * sim::kMillisecond;
  e.timeout_base = 300 * sim::kMillisecond;
  auto child = h.spawn_subnet(h.root(), "obs-child", child_params, 3,
                              TokenAmount::whole(5), e);
  if (!child.ok()) return out;
  auto alice = h.make_user("obs-alice", TokenAmount::whole(1000));
  if (!alice.ok()) return out;
  auto fund = h.send_cross(h.root(), alice.value(), child.value()->id,
                           alice.value().addr, TokenAmount::whole(50));
  if (!fund.ok() || !fund.value().ok()) return out;
  if (!h.run_until(
          [&] {
            return child.value()->node(0).balance(alice.value().addr) ==
                   TokenAmount::whole(50);
          },
          60 * sim::kSecond)) {
    return out;
  }
  auto release =
      h.send_cross(*child.value(), alice.value(), core::SubnetId::root(),
                   alice.value().addr, TokenAmount::whole(5));
  if (!release.ok() || !release.value().ok()) return out;
  h.run_for(10 * sim::kSecond);
  out.metrics_json = metrics_to_json(h.obs().metrics);
  out.chrome = trace_to_chrome_json(h.obs().tracer);
  out.ok = true;
  return out;
}

TEST(ObsEndToEnd, CrossMsgLatencyRecordedPerSubnet) {
  RunArtifacts a = scripted_run();
  ASSERT_TRUE(a.ok);
  // The top-down fund ends at the child; the bottom-up release at the root.
  EXPECT_NE(a.metrics_json.find("cross_msg_e2e_latency_us"),
            std::string::npos);
  EXPECT_NE(json_family(a.metrics_json, "cross_msg_e2e_latency_us")
                .find("\"subnet=/root\":{\"count\":"),
            std::string::npos);
  EXPECT_NE(a.metrics_json.find("checkpoint_sign_latency_us"),
            std::string::npos);
  EXPECT_NE(a.metrics_json.find("node_blocks_committed_total"),
            std::string::npos);
  EXPECT_NE(a.chrome.find("crossmsg.e2e"), std::string::npos);
  EXPECT_NE(a.chrome.find("checkpoint.pipeline"), std::string::npos);
  EXPECT_TRUE(json_balanced(a.chrome));
}

TEST(ObsEndToEnd, SameSeedRunsExportIdenticalBytes) {
  RunArtifacts a = scripted_run();
  RunArtifacts b = scripted_run();
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.chrome, b.chrome);
}

}  // namespace
}  // namespace hc::obs
