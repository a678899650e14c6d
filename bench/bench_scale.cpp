// C1 — city-scale memory engine (DESIGN.md §17).
//
// Boots a 4-level hierarchy (root → district → ward → leaf) with a
// fanout-10 tree of 1111 subnets and 10⁶ pre-funded accounts via static
// genesis-time construction (TreeSpec — no spawn protocol, no funding
// rounds), drives Zipf-skewed transfer traffic at the hottest leaves, and
// measures the deterministic memory footprint:
//
//   peak_bytes_per_node   max over nodes/samples of SubnetNode::mem_bytes()
//   bytes_per_account     peak aggregate node bytes / pre-funded accounts
//   interner_entries/bytes  process-wide SubnetId intern table footprint
//
// All byte numbers are logical sizes (DESIGN.md §17), never allocator
// capacities, so same-seed runs report identical values and the committed
// BENCH_scale.json baseline gates them via scripts/bench_diff.py. The
// fanout-4 row (85 subnets) is the sanitizer-friendly trim used by
// scripts/check.sh; the fanout-10 row is the headline city.
#include "bench_common.hpp"

#include "core/intern.hpp"

namespace hc::bench {
namespace {

constexpr sim::Duration kWindow = 2 * sim::kSecond;    // measured traffic
constexpr sim::Duration kSampleEvery = 250 * sim::kMillisecond;
constexpr std::size_t kZipfBase = 8;  // msgs/tick at rank 1, ∝ 1/rank after

struct CityShape {
  std::size_t fanout = 4;            // per level, 3 levels below root
  std::size_t accounts_per_leaf = 100;
  std::size_t hot_leaves = 16;       // Zipf head: leaves with keyed senders
  [[nodiscard]] std::size_t leaves() const {
    return fanout * fanout * fanout;
  }
  [[nodiscard]] std::size_t subnets() const {
    return 1 + fanout + fanout * fanout + leaves();
  }
  [[nodiscard]] std::size_t accounts() const {
    return leaves() * accounts_per_leaf;
  }
};

CityShape shape_for(std::size_t fanout) {
  CityShape s;
  s.fanout = fanout;
  if (fanout >= 10) {       // the headline city: 1111 subnets, 10⁶ accounts
    s.accounts_per_leaf = 1000;
    s.hot_leaves = 64;
  }
  return s;
}

core::SubnetParams city_params(const std::string& name) {
  core::SubnetParams p = bench_params();
  p.name = name;
  return p;
}

runtime::TreeSpec make_city(const CityShape& shape) {
  const consensus::EngineConfig engine = subnet_engine(200 * sim::kMillisecond);
  std::size_t rank = 0;  // leaf rank in preorder == traffic rank
  runtime::TreeSpec root;
  root.name = "root";
  root.params = city_params("root");
  root.engine = engine;
  for (std::size_t d = 0; d < shape.fanout; ++d) {
    runtime::TreeSpec district;
    district.name = "d" + std::to_string(d);
    district.params = city_params(district.name);
    district.engine = engine;
    for (std::size_t w = 0; w < shape.fanout; ++w) {
      runtime::TreeSpec ward;
      ward.name = district.name + "w" + std::to_string(w);
      ward.params = city_params(ward.name);
      ward.engine = engine;
      for (std::size_t l = 0; l < shape.fanout; ++l) {
        runtime::TreeSpec leaf;
        leaf.name = ward.name + "l" + std::to_string(l);
        leaf.params = city_params(leaf.name);
        leaf.engine = engine;
        leaf.accounts = shape.accounts_per_leaf;
        if (rank < shape.hot_leaves) leaf.hot_accounts = 1;
        ++rank;
        ward.children.push_back(std::move(leaf));
      }
      district.children.push_back(std::move(ward));
    }
    root.children.push_back(std::move(district));
  }
  return root;
}

/// One keyed sender per hot leaf, re-derived from the TreeSpec label and
/// pre-funded in genesis — traffic starts at sim-time zero, no funding
/// round-trips. Transfers spray the leaf's cold account mass.
struct HotSender {
  runtime::Subnet* leaf = nullptr;
  crypto::KeyPair key = crypto::KeyPair::from_label("unset");
  Address addr;
  std::uint64_t nonce = 0;
  std::size_t pumped = 0;

  void pump(std::size_t count, std::size_t cold_accounts) {
    auto& node = leaf->node(0);
    for (std::size_t i = 0; i < count; ++i) {
      chain::Message m;
      m.from = addr;
      m.to = Address::id(1000 + (pumped++ % cold_accounts));
      m.nonce = nonce++;
      m.value = TokenAmount::atto(1);
      m.gas_limit = 1u << 22;
      m.gas_price = TokenAmount::atto(1);
      node.post(0, [&node, key = key, m = std::move(m)]() mutable {
        (void)node.submit_message(chain::SignedMessage::sign(std::move(m),
                                                             key));
      });
    }
  }
};

/// BENCH_scale.metrics.json carries a compact per-run "scale" object plus
/// the two counters bench_diff.py's generic gates read (committed, events):
/// the full 1111-subnet metrics export would be megabytes.
SidecarWriter sidecar("scale");

void run_city(benchmark::State& state) {
  const CityShape shape = shape_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    runtime::HierarchyConfig cfg = bench_config(/*seed=*/9000 + shape.fanout);
    // The memory engine under test: bounded per-node chain windows + the
    // opt-in mem gauges. The window comfortably exceeds replica lag (every
    // subnet has one validator) while flattening the per-node ceiling.
    cfg.chain_retention = {.max_items = 64, .max_bytes = 0};
    cfg.mem_metrics = true;
    runtime::Hierarchy h(cfg, make_city(shape));

    // Hot senders: leaf rank r (preorder) gets ~kZipfBase/(r+1) msgs/tick.
    std::vector<HotSender> hot;
    for (const auto& s : h.subnets()) {
      if (s->id.depth() != 3 || hot.size() >= shape.hot_leaves) continue;
      HotSender sender;
      sender.leaf = s.get();
      sender.key = crypto::KeyPair::from_label(s->params.name + "-hot-0");
      sender.addr = Address::key(sender.key.public_key().to_bytes());
      hot.push_back(std::move(sender));
    }

    std::size_t peak_node = 0;
    std::size_t peak_total = 0;
    std::size_t nodes = 0;
    const auto sample = [&] {
      std::size_t total = 0;
      nodes = 0;
      for (const auto& s : h.subnets()) {
        for (std::size_t i = 0; i < s->size(); ++i) {
          if (!s->alive(i)) continue;
          const std::size_t b = s->node(i).mem_bytes();
          peak_node = std::max(peak_node, b);
          total += b;
          ++nodes;
        }
      }
      peak_total = std::max(peak_total, total);
    };

    sample();  // genesis footprint
    const sim::Time start = h.scheduler().now();
    while (h.scheduler().now() - start < kWindow) {
      for (std::size_t r = 0; r < hot.size(); ++r) {
        hot[r].pump(std::max<std::size_t>(1, kZipfBase / (r + 1)),
                    shape.accounts_per_leaf);
      }
      h.run_for(kSampleEvery);
      sample();
    }
    h.run_for(sim::kSecond);  // drain in-flight blocks + checkpoints
    sample();

    std::uint64_t committed = 0;
    for (const auto& s : h.subnets()) {
      committed += s->node(0).stats().user_msgs_executed;
    }
    const auto& interner = core::SubnetInterner::instance();

    const std::size_t bytes_per_account =
        peak_total / std::max<std::size_t>(1, shape.accounts());
    sidecar.add(
        "city/fanout=" + std::to_string(shape.fanout), 9000 + shape.fanout,
        "{\"counters\": {\"node_user_msgs_executed_total\": {\"\": " +
            std::to_string(committed) +
            "}, \"sim_events_run_total\": {\"\": " +
            std::to_string(h.scheduler().events_run()) + "}}}",
        std::nullopt,
        "{\"subnets\": " + std::to_string(shape.subnets()) +
            ", \"nodes\": " + std::to_string(nodes) +
            ", \"accounts\": " + std::to_string(shape.accounts()) +
            ", \"peak_bytes_per_node\": " + std::to_string(peak_node) +
            ", \"peak_total_bytes\": " + std::to_string(peak_total) +
            ", \"bytes_per_account\": " + std::to_string(bytes_per_account) +
            ", \"interner_entries\": " + std::to_string(interner.size()) +
            ", \"interner_bytes\": " +
            std::to_string(interner.approx_bytes()) + "}");

    state.counters["subnets"] = static_cast<double>(shape.subnets());
    state.counters["accounts"] = static_cast<double>(shape.accounts());
    state.counters["committed"] = static_cast<double>(committed);
    state.counters["peak_bytes_per_node"] = static_cast<double>(peak_node);
    state.counters["bytes_per_account"] =
        static_cast<double>(bytes_per_account);
    state.counters["interner_entries"] =
        static_cast<double>(interner.size());
  }
}

BENCHMARK(run_city)
    ->ArgName("fanout")
    ->Arg(4)   // 85 subnets — the sanitizer/check.sh trim
    ->Arg(10)  // 1111 subnets, 10⁶ accounts — the headline city
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

QuietLogs quiet;

}  // namespace
}  // namespace hc::bench

HC_BENCH_MAIN()
