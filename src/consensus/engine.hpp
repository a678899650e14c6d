// Pluggable consensus engines.
//
// Paper §II: "Subnets can run a consensus algorithm of their choosing to
// validate blocks"; §VI names Tendermint and MirBFT as integration targets
// next to Filecoin's Expected Consensus. Every engine drives the same
// BlockSource interface (assemble / validate / commit), so the subnet node
// is agnostic to the protocol it runs.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "chain/block.hpp"
#include "core/params.hpp"
#include "crypto/schnorr.hpp"
#include "net/network.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace hc::consensus {

/// One member of a subnet's validator set.
struct Validator {
  crypto::PublicKey key;
  std::uint64_t power = 1;  // voting/mining power (stake-derived)

  [[nodiscard]] Address address() const {
    return Address::key(key.to_bytes());
  }
};

class ValidatorSet {
 public:
  ValidatorSet() = default;
  explicit ValidatorSet(std::vector<Validator> members)
      : members_(std::move(members)) {}

  [[nodiscard]] const std::vector<Validator>& members() const {
    return members_;
  }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] std::uint64_t total_power() const;

  /// The rotating leader of (height, round): member (height + round) % n.
  [[nodiscard]] const Validator& leader(chain::Epoch height,
                                        std::uint32_t round = 0) const {
    return members_[(static_cast<std::size_t>(height) + round) %
                    members_.size()];
  }

  /// Index of a key in the set; nullopt when absent.
  [[nodiscard]] std::optional<std::size_t> index_of(
      const crypto::PublicKey& key) const;

  /// Count-based BFT quorum: 2f+1 where f = (n-1)/3.
  [[nodiscard]] std::size_t quorum() const {
    return size() == 0 ? 0 : 2 * ((size() - 1) / 3) + 1;
  }
  /// Maximum tolerable Byzantine members.
  [[nodiscard]] std::size_t max_faulty() const {
    return size() == 0 ? 0 : (size() - 1) / 3;
  }

 private:
  std::vector<Validator> members_;
};

/// Node-side callbacks an engine drives. The engine owns WHEN blocks happen;
/// the BlockSource owns WHAT is in them and what they do to state.
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  /// Assemble a candidate block extending the current head. `ticket` is
  /// the engine's header stamp (the lottery's claimed rank; empty for the
  /// others), set before the block is sealed so its CID is final.
  [[nodiscard]] virtual chain::Block build_block(const Address& miner,
                                                 Bytes ticket) = 0;

  /// Validate a proposed block against the current head/state. Must not
  /// change committed state (the head, the chain, anything a commit
  /// writes), but may keep its execution of the block for a later
  /// commit_block and store content the block carries (resolved cross-msg
  /// batches).
  [[nodiscard]] virtual Status validate_block(const chain::Block& block) = 0;

  /// Irreversibly append a block. `proof` is the consensus commitment
  /// (leader signature, quorum certificate, ...) recorded in the header.
  virtual void commit_block(chain::Block block, Bytes proof) = 0;

  [[nodiscard]] virtual chain::Epoch head_height() const = 0;
  [[nodiscard]] virtual Cid head_cid() const = 0;

  /// Historical access, used by catch-up sync for recovering validators.
  [[nodiscard]] virtual std::optional<chain::Block> block_at(
      chain::Epoch height) const = 0;
  /// The consensus proof recorded when `height` was committed.
  [[nodiscard]] virtual Bytes proof_at(chain::Epoch height) const = 0;
};

struct EngineConfig {
  sim::Duration block_time = sim::kSecond;
  /// Base timeout for leader-failure detection (BFT engines).
  sim::Duration timeout_base = 2 * sim::kSecond;
};

/// Write-ahead persistence for an engine's voting/production state
/// (DESIGN.md §15). persist() must make the bytes durable BEFORE the
/// caller lets the corresponding signed vote, ACK or block leave the node
/// — that ordering is the write-ahead barrier that lets a restarted
/// validator know exactly what its pre-crash self signed, so it never
/// signs a conflicting message at the same (height, round). Records are
/// last-wins: recovered() returns only the newest persisted state.
class VoteStore {
 public:
  virtual ~VoteStore() = default;

  /// Durably record (and fsync) the engine's current vote state.
  virtual void persist(BytesView state) = 0;

  /// The last state persisted before the crash this node recovered from;
  /// nullopt on a fresh (or disk-lost) start.
  [[nodiscard]] virtual std::optional<Bytes> recovered() const = 0;
};

/// Everything an engine needs from its environment.
struct EngineContext {
  sim::Scheduler* scheduler = nullptr;
  net::Network* network = nullptr;
  net::NodeId node = 0;
  std::string topic;  // consensus pubsub topic (subnet topic + "/consensus")
  crypto::KeyPair key = crypto::KeyPair::from_label("unset");
  ValidatorSet validators;
  BlockSource* source = nullptr;
  /// Write-ahead vote persistence; nullptr = volatile (no durability).
  VoteStore* votes = nullptr;
  /// Rebuilt after a crash (Hierarchy::restart_node), not a fresh boot.
  bool restarted = false;
  std::uint64_t rng_seed = 0;
  /// Metrics/trace sink; nullptr falls back to obs::default_obs().
  obs::Obs* obs = nullptr;
  /// Label scope for metrics, normally the subnet id string.
  std::string scope;
};

/// The vote state an engine persisted last before the crash it restarts
/// from; nullopt for a volatile engine, a fresh start or undecodable bytes.
template <typename State>
[[nodiscard]] std::optional<State> recovered_votes(const EngineContext& ctx) {
  if (ctx.votes == nullptr) return std::nullopt;
  const auto blob = ctx.votes->recovered();
  if (!blob) return std::nullopt;
  auto state = decode<State>(*blob);
  if (!state) return std::nullopt;
  return std::move(state).value();
}

/// Registry-backed progress counters shared by every engine, labeled
/// {engine=<name>, subnet=<ctx.scope>}. Resolved once at engine
/// construction so the hot path is a single pointer bump.
class EngineMetrics {
 public:
  EngineMetrics(const EngineContext& ctx, std::string_view engine);

  /// A consensus round started (PoA/lottery: a block production attempt).
  void round() { rounds_->inc(); }
  /// Moved past round 0 at some height — a leader was silent or slow.
  void view_change() { view_changes_->inc(); }
  /// A protocol timeout actually fired and changed behaviour.
  void timeout() { timeouts_->inc(); }
  /// Asked peers for missed blocks.
  void catch_up() { catchups_->inc(); }

  /// Interned "consensus/<engine>/step" profiler phase. Engines open a
  /// ProfileScope on this around message handling and timer-driven
  /// production so the wall-clock profiler can attribute consensus cost
  /// per engine (DESIGN.md §13). Wall time only — never part of the
  /// deterministic metric/trace exports.
  [[nodiscard]] obs::PhaseId step_phase() const { return step_phase_; }

 private:
  obs::Counter* rounds_;
  obs::Counter* view_changes_;
  obs::Counter* timeouts_;
  obs::Counter* catchups_;
  obs::PhaseId step_phase_;
};

class Engine {
 public:
  virtual ~Engine() = default;

  /// Begin participating (schedules timers, subscribes handled by node).
  virtual void start() = 0;
  /// Stop producing/voting (a crashed or stopped validator).
  virtual void stop() = 0;
  /// Deliver a consensus wire message published on the consensus topic.
  /// The envelope's decoded-object cache means the N validators of a
  /// subnet parse each proposal/vote once between them.
  virtual void on_message(net::NodeId from, const net::Envelope& payload) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

 protected:
  /// Wrap a timer callback so it dies with the engine. Engines leave timers
  /// in the scheduler past stop() (epoch counters make them no-ops), but a
  /// crash-restarted node DESTROYS its engine with timers still pending —
  /// the guard turns those into no-ops instead of use-after-frees.
  template <typename F>
  [[nodiscard]] auto guarded(F fn) {
    return [weak = std::weak_ptr<const bool>(alive_), fn = std::move(fn)] {
      if (const auto alive = weak.lock()) fn();
    };
  }

 private:
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
};

/// Factory covering every ConsensusType a subnet can choose (paper §II).
[[nodiscard]] std::unique_ptr<Engine> make_engine(core::ConsensusType type,
                                                  EngineContext context,
                                                  EngineConfig config);

}  // namespace hc::consensus
