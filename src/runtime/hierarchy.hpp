// Hierarchy: end-to-end orchestration of a hierarchical-consensus system.
//
// This is the library's top-level API (what Fig. 1 depicts): boot a rootnet,
// spawn subnets at any point of the tree (deploy SA -> validators join ->
// SA registers with the parent SCA -> child chain boots), and drive
// cross-net operations. All nodes share one discrete-event scheduler and
// one simulated network, so runs are reproducible.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/node.hpp"
#include "sim/parallel.hpp"

namespace hc::runtime {

struct HierarchyConfig {
  std::uint64_t seed = 1;
  sim::LatencyModel latency = sim::LatencyModel::lan();
  net::GossipConfig gossip;

  /// Mempool capacity policy installed on every node of every subnet
  /// (defaults keep pools unbounded except for the nonce-gap window;
  /// DESIGN.md §14).
  chain::MempoolConfig mempool;

  /// Resolved-content cache cap installed on every node (DESIGN.md §14);
  /// default unbounded. Chaos runs bound it and assert the observed peaks
  /// in the bounded-queues invariant.
  common::CapacityPolicy content_store;

  /// Per-node chain retention window (DESIGN.md §17); default unbounded
  /// (full history — the pre-§17 behavior). City-scale runs bound it to
  /// flatten the per-node memory ceiling; the window must exceed worst
  /// replica lag (catch-up reads pruned blocks).
  common::CapacityPolicy chain_retention;

  /// Export per-node memory gauges (node_mem_bytes/node_mem_peak_bytes,
  /// DESIGN.md §17). Off by default: existing exports stay byte-identical.
  bool mem_metrics = false;

  /// Top-down circuit breaker (SCA, DESIGN.md §14), baked into every
  /// chain's genesis SCA state. 0 disables it.
  std::uint64_t topdown_window_cap = 0;

  /// Rootnet parameters (consensus type; checkpoint fields unused at root).
  core::SubnetParams root_params;
  std::size_t root_validators = 4;
  consensus::EngineConfig root_engine;

  /// Worker threads for windowed parallel execution (one scheduler lane
  /// per subnet). 1 keeps execution sequential but still window-driven,
  /// so 1- and N-thread runs of the same seed replay byte-identically
  /// (DESIGN.md §11).
  std::size_t threads = 1;

  /// Durability (DESIGN.md §15): when enabled, every validator gets a
  /// simulated durable medium owned by the hierarchy. Nodes write-ahead
  /// log committed blocks, checkpoint cuts and consensus vote state;
  /// crash_node applies a disk fault (default: lose the un-fsynced
  /// suffix) instead of total state loss, and restart_node recovers by
  /// WAL replay + network tail catch-up instead of a genesis rebuild.
  /// Off by default: volatile topologies stay byte-identical to
  /// pre-durability builds.
  struct Durability {
    bool enabled = false;
    /// Lazy fsync cadence for block records (vote state always fsyncs).
    std::uint32_t fsync_every_blocks = 4;
  };
  Durability durability;

  /// Optional latency of every link between two subnets' lanes (a node
  /// outside every subnet sits in lane 0). Models the paper's deployment
  /// (co-located subnet validators, WAN between subnets) and widens the
  /// executor's conservative lookahead (= the minimum cross-lane delay),
  /// and with it the usable parallelism.
  struct CrossSubnetLatency {
    sim::Duration base = 0;
    sim::Duration jitter = 0;
  };
  std::optional<CrossSubnetLatency> cross_subnet_latency;
};

/// A spawned subnet (or the rootnet): its nodes and identity. Slots in
/// `nodes` are stable: a crashed validator leaves a null entry that
/// restart_node refills (same key, same transport id).
class Subnet {
 public:
  core::SubnetId id;
  Address sa;  // SA address in the parent chain; invalid for root
  core::SubnetParams params;
  consensus::EngineConfig engine;
  Subnet* parent = nullptr;
  /// Scheduler lane shared by this subnet's nodes (root subnet included;
  /// lane 0 stays reserved for driver/chaos events).
  sim::DomainId domain = 0;
  std::vector<crypto::KeyPair> validator_keys;
  std::vector<std::unique_ptr<SubnetNode>> nodes;
  /// Transport id per slot, kept across crash/restart cycles.
  std::vector<net::NodeId> node_ids;
  /// Shared immutable genesis (flyweight, DESIGN.md §17): every replica's
  /// chain store and every restart point at this ONE flushed tree instead
  /// of private snapshots. Restarted validators replay from here (crash
  /// loses all local state) and catch up via the catch-up protocol.
  std::shared_ptr<const chain::StateTree> genesis;

  [[nodiscard]] SubnetNode& node(std::size_t i = 0) { return *nodes.at(i); }
  [[nodiscard]] const SubnetNode& node(std::size_t i = 0) const {
    return *nodes.at(i);
  }
  [[nodiscard]] std::size_t size() const { return nodes.size(); }

  /// Whether validator slot `i` is currently running.
  [[nodiscard]] bool alive(std::size_t i) const {
    return i < nodes.size() && nodes[i] != nullptr;
  }
  [[nodiscard]] std::size_t alive_count() const;
  /// First alive node — the default endpoint for client API calls.
  /// Throws when every validator of the subnet is crashed.
  [[nodiscard]] SubnetNode& api_node() const;
};

/// A user identity with per-subnet nonce tracking handled by the caller
/// through Hierarchy::call (nonces are read from chain state).
struct User {
  crypto::KeyPair key = crypto::KeyPair::from_label("unset");
  Address addr;
};

/// Declarative subnet-tree topology for static genesis-time construction
/// (DESIGN.md §17). One node of the spec = one subnet; the k-th child's SA
/// address is Address::id(100+k) in its parent chain — exactly what the
/// parent's Init actor (nonce 100) would have assigned had the subnets
/// been spawned through the deploy→join→register protocol. Registration
/// state (SA actor, SCA subnet entry, escrowed collateral + circulating
/// supply) is fabricated directly into each genesis, so booting a
/// 1000-subnet city costs seconds instead of simulating thousands of
/// spawn round-trips.
struct TreeSpec {
  std::string name = "root";
  core::SubnetParams params;
  consensus::EngineConfig engine;
  /// At least 1. Each validator's collateral in the parent's SA/SCA
  /// entries is 10 whole tokens (fabricated escrow; nothing to fund or
  /// join at runtime).
  std::size_t n_validators = 1;
  /// Pre-funded cold accounts Address::id(1000+j), j < accounts — account
  /// mass without per-account keypairs (a keyed identity costs ~100× the
  /// bytes of an id address at 10⁶ scale).
  std::size_t accounts = 0;
  TokenAmount account_balance = TokenAmount::whole(1);
  /// Pre-funded keyed sender accounts for load generators, derived as
  /// KeyPair::from_label(name + "-hot-" + i) — benches re-derive the same
  /// keys to sign traffic.
  std::size_t hot_accounts = 0;
  TokenAmount hot_balance = TokenAmount::whole(100);
  std::vector<TreeSpec> children;

  /// Subnets in this spec, self included.
  [[nodiscard]] std::size_t subnet_count() const {
    std::size_t n = 1;
    for (const auto& c : children) n += c.subnet_count();
    return n;
  }
};

class Hierarchy {
 public:
  explicit Hierarchy(HierarchyConfig config);

  /// Static genesis-time boot of a whole subnet tree (DESIGN.md §17):
  /// ids, validator sets and SA/SCA registration state are fabricated
  /// into each chain's genesis (see TreeSpec) and every chain boots
  /// immediately — no spawn protocol, no cross-net funding. The spec
  /// root replaces config.root_params/root_validators/root_engine. The
  /// faucet account still exists on the root chain, so make_user() and
  /// dynamic spawn_subnet() compose with a static tree. Throws
  /// std::invalid_argument when a subnet of the spec has no validators.
  Hierarchy(HierarchyConfig config, const TreeSpec& spec);

  ~Hierarchy();

  Hierarchy(const Hierarchy&) = delete;
  Hierarchy& operator=(const Hierarchy&) = delete;

  [[nodiscard]] Subnet& root() { return *root_; }
  [[nodiscard]] sim::Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] const net::Network& network() const { return network_; }
  /// The windowed executor run_for/run_until drive time through.
  [[nodiscard]] sim::ParallelExecutor& executor() { return executor_; }
  /// Metrics + traces for this hierarchy. Owned (not the process default),
  /// so same-seed runs export byte-identical snapshots.
  [[nodiscard]] obs::Obs& obs() { return obs_; }

  /// Advance simulated time.
  void run_for(sim::Duration d);

  /// Run until `pred` holds or `max` elapses; returns whether it held.
  bool run_until(const std::function<bool()>& pred, sim::Duration max,
                 sim::Duration step = 50 * sim::kMillisecond);

  /// Create a user identity and fund it on the rootnet from the faucet.
  Result<User> make_user(const std::string& label, TokenAmount funds,
                         sim::Duration timeout = 30 * sim::kSecond);

  /// Submit a signed call from `user` on `subnet` (auto nonce/gas) and wait
  /// for inclusion. Returns the execution receipt.
  Result<chain::Receipt> call(Subnet& subnet, const User& user,
                              const Address& to, chain::MethodNum method,
                              Bytes params, TokenAmount value,
                              sim::Duration timeout = 60 * sim::kSecond);

  /// Fire-and-forget variant of call (no waiting).
  Status submit(Subnet& subnet, const User& user, const Address& to,
                chain::MethodNum method, Bytes params, TokenAmount value);

  /// Spawn a child subnet of `parent`: deploys the SA, funds fresh
  /// validators on the parent chain, joins them with `stake_each`, waits
  /// for SCA registration, then boots the child chain's nodes.
  Result<Subnet*> spawn_subnet(Subnet& parent, const std::string& name,
                               core::SubnetParams params,
                               std::size_t n_validators,
                               TokenAmount stake_each,
                               consensus::EngineConfig engine = {},
                               sim::Duration timeout = 120 * sim::kSecond);

  /// Cross-net value transfer / invocation from `user` on `from`, routed
  /// per paper §IV-A (top-down, bottom-up, or path). Returns once the SCA
  /// of `from` accepted the message (delivery is asynchronous).
  Result<chain::Receipt> send_cross(Subnet& from, const User& user,
                                    const core::SubnetId& dest,
                                    const Address& to, TokenAmount value,
                                    chain::MethodNum method = 0,
                                    Bytes inner_params = {});

  /// Crash validator `i` of `subnet` (fail-stop with state loss): stops its
  /// engine, marks its transport endpoint down, forgets its network-side
  /// state, and destroys the node. Child subnet nodes whose trusted parent
  /// view pointed at it are re-pointed to an alive replica (or detached if
  /// none is left). Idempotent errors: out-of-range / already crashed.
  /// With durability enabled the validator's disk survives with the
  /// default power-loss fault (un-fsynced suffix lost).
  Status crash_node(Subnet& subnet, std::size_t i);

  /// Crash with an explicit disk outcome (DESIGN.md §15): kKeepAll /
  /// kLoseSuffix / kTornTail / kBitFlip damage the medium in place;
  /// kLoseDisk models total medium loss (restart rebuilds from genesis
  /// and catches up over the network). The fault seed is mixed with a
  /// deterministic per-crash derivation, so same-seed runs replay the
  /// same damage. No-op on the disk when durability is disabled.
  Status crash_node(Subnet& subnet, std::size_t i, storage::DiskFault fault);

  /// Restart a previously crashed validator: rebuilds the node from the
  /// subnet's genesis snapshot under the SAME key and transport id, brings
  /// the endpoint back up, re-attaches parent views (its own, and any child
  /// nodes orphaned while every replica was down) and starts it. The node
  /// catches up via the consensus catch-up protocol and re-signs checkpoint
  /// cuts during replay, resuming its checkpointing duty.
  Status restart_node(Subnet& subnet, std::size_t i);

  /// All subnets spawned so far (including root), tree order.
  [[nodiscard]] const std::vector<std::unique_ptr<Subnet>>& subnets() const {
    return subnets_;
  }

  /// The registry shared by every chain in the hierarchy.
  [[nodiscard]] const chain::ActorRegistry& registry() const {
    return registry_;
  }

  /// The configuration this hierarchy was built with (invariant checks
  /// compare observed queue depths against its caps).
  [[nodiscard]] const HierarchyConfig& config() const { return config_; }

  /// The durable medium of validator slot `i` of `subnet`, created on
  /// first use. nullptr when durability is disabled. Exposed so recovery
  /// tests and invariants can inspect WAL contents.
  [[nodiscard]] storage::DurableStore* disk_for(const Subnet& subnet,
                                                std::size_t i);
  /// Const lookup variant: nullptr when the slot never had a disk.
  [[nodiscard]] const storage::DurableStore* find_disk(const Subnet& subnet,
                                                       std::size_t i) const;

 private:
  /// Scheduler/network/obs/actor wiring shared by both constructors.
  void init_common();

  /// The per-node config every boot path derives from (subnet identity +
  /// hierarchy-wide policies); restart_node adds reuse_net_id on top.
  [[nodiscard]] NodeConfig node_config(const Subnet& subnet,
                                       std::size_t slot);

  /// Boot one composed subnet: flush + share the genesis, construct its
  /// validator nodes, attach parent views round-robin, start. Shared by
  /// the root boot, spawn_subnet and the static tree builder.
  void boot_subnet(Subnet& subnet, chain::StateTree genesis);

  // Static construction (DESIGN.md §17). Staged holds a composed-but-not-
  // booted subnet; composition runs bottom-up (a parent genesis embeds its
  // children's registration + circulating supply), boot runs top-down
  // (children attach views to running parent nodes).
  struct Staged;
  [[nodiscard]] Staged compose_static(const TreeSpec& spec, Subnet* parent,
                                      const Address& sa);
  void boot_staged(Staged staged);

  HierarchyConfig config_;
  obs::Obs obs_;  // declared before network_/scheduler users
  sim::Scheduler scheduler_;
  net::Network network_;
  sim::ParallelExecutor executor_;
  chain::ActorRegistry registry_;
  User faucet_;
  std::vector<std::unique_ptr<Subnet>> subnets_;
  Subnet* root_ = nullptr;
  std::uint64_t label_counter_ = 0;
  /// Per-validator durable media, keyed "subnet-id#slot" (stable across
  /// crash/restart cycles — that is the point). Populated lazily, only
  /// when durability is enabled.
  std::map<std::string, storage::DurableStore> disks_;
  /// Monotone crash ordinal, mixed into derived disk-fault seeds.
  std::uint64_t crash_counter_ = 0;
};

}  // namespace hc::runtime
