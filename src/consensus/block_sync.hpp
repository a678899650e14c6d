// Engine-agnostic block sync: bring a lagging replica back to the head
// (DESIGN.md §3 "Block sync"). Every engine owns one; the engine supplies
// only verify_proof, the check of the consensus proof (leader or miner
// signature, quorum certificate) a committed block carries.
#pragma once

#include <functional>
#include <map>

#include "consensus/engine.hpp"
#include "consensus/wire.hpp"

namespace hc::consensus {

/// Vote bookkeeping for one (round, cid): validator index -> signature.
using VoteSet = std::map<std::size_t, crypto::Signature>;

class BlockSync {
 public:
  /// The engine's hook: does `proof` commit `block` (CID `block_cid`) at
  /// `height`? The block is decoded, so a proof that depends on its header
  /// (the lottery's rank over the parent) can be checked.
  using VerifyProof =
      std::function<bool(chain::Epoch height, const Cid& block_cid,
                         const chain::Block& block, BytesView proof)>;

  /// Blocks re-published per request.
  static constexpr chain::Epoch kMaxServe = 16;
  /// Heights above the head a block may be buffered at. A farther block
  /// is dropped (it still triggers a request) and served again later.
  static constexpr chain::Epoch kMaxAhead = 256;

  /// `ctx` and `metrics` belong to the owning engine and outlive this.
  BlockSync(const EngineContext& ctx, sim::Duration block_time,
            EngineMetrics& metrics, VerifyProof verify_proof);

  /// Messages BlockSync handles: committed blocks (kBlock) and range
  /// requests (kAck with a null CID, which no vote carries).
  [[nodiscard]] static bool owns(const WireMsg& msg);

  /// Handle an owned message whose signature the engine checked: serve a
  /// request (only ever on request), or buffer a relayed copy of a block
  /// whose `extra` proof verifies. Returns the blocks committed.
  std::size_t on_message(const WireMsg& msg);

  /// Buffer a block straight from its producer, whose `proof` is the
  /// producer's own gossip signature, and commit whatever is in order.
  /// `verify` runs the engine's proof check; a PoA block from its height's
  /// leader skips it, because the engine vouched for the sender itself.
  std::size_t offer(const WireMsg& msg, Bytes proof, bool verify);

  /// Ask peers for blocks from head+1 on, at most once per block time:
  /// every peer answers every request with a batch, so an unthrottled
  /// requester would amplify into a broadcast storm.
  void request();

  /// Commit buffered blocks that extend the head, in height order, each
  /// only once its parent is the head and the BlockSource validates it.
  std::size_t drain();

  /// Commit a block the engine decided itself, announce it with its proof
  /// for peers that missed the decision, then drain().
  void commit_and_announce(const chain::Block& block, std::uint32_t round,
                           Bytes proof);

  [[nodiscard]] std::size_t buffered() const { return pending_.size(); }

  /// The leader engines' production hold: true for five block times after
  /// a relayed copy committed, or after a restart that recovered no vote
  /// state (the window covers a stall-detection delay plus a serve round
  /// trip). Having accepted a relayed copy proves this replica is behind,
  /// and producing for a height the true chain already holds would fork
  /// it off for good (PoA and the lottery have no reorg).
  /// Each relayed commit re-arms it, so it ends only once replay drained.
  [[nodiscard]] bool holding() const;

 private:
  std::size_t buffer(const WireMsg& msg, Bytes proof, bool verify,
                     bool relayed);
  void serve(chain::Epoch from);

  struct Pending {
    chain::Block block;
    Bytes proof;
    bool relayed = false;
  };

  const EngineContext& ctx_;
  sim::Duration block_time_;
  EngineMetrics& metrics_;
  VerifyProof verify_proof_;
  std::map<chain::Epoch, Pending> pending_;
  sim::Time last_request_ = -1;
  sim::Time hold_until_ = 0;
};

/// The BFT engines' proof: a QuorumCert over the votes of a quorum, keyed
/// by validator index.
[[nodiscard]] Bytes quorum_proof(const ValidatorSet& validators,
                                 chain::Epoch height, std::uint32_t round,
                                 const Cid& block_cid, const VoteSet& votes);

/// The BFT engines' verify_proof: a QuorumCert for (height, block_cid)
/// whose signers are all members, with a quorum of valid `vote` signatures.
[[nodiscard]] bool verify_quorum_proof(const ValidatorSet& validators,
                                       WireKind vote, chain::Epoch height,
                                       const Cid& block_cid, BytesView proof);

}  // namespace hc::consensus
