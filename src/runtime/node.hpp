// SubnetNode: a full node / validator of one subnet.
//
// Owns the subnet's chain, state, WAL, mempool and cross-msg section; runs
// the subnet's chosen consensus engine; serves and consumes the
// content-resolution protocol; and — per paper §II ("child subnet nodes
// also run full nodes on the parent subnet") — holds a trusted read view of
// a parent node, which the cross-msg section polls for committed top-down
// messages. Its checkpoint duty is a CheckpointDuty (checkpoint_duty.hpp).
//
// The node runs only the honest protocol. Fault injection may arm one
// CheckpointAdversary on its duty, which calls it at fixed points; it acts
// only through the duty's helpers. A restarted replica is a new object, so
// it comes back honest.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "actors/sca_actor.hpp"
#include "actors/subnet_actor.hpp"
#include "chain/chainstore.hpp"
#include "chain/executor.hpp"
#include "chain/mempool.hpp"
#include "consensus/engine.hpp"
#include "core/params.hpp"
#include "runtime/checkpoint_duty.hpp"
#include "runtime/resolution.hpp"
#include "storage/durable.hpp"
#include "storage/store.hpp"
#include "storage/wal.hpp"

namespace hc::runtime {

struct NodeConfig {
  core::SubnetId subnet;
  core::SubnetParams params;
  consensus::EngineConfig engine;
  std::size_t max_user_msgs_per_block = 500;
  /// Mempool caps (DESIGN.md §14). Defaults enforce only the nonce-gap
  /// admission window; benches and chaos runs tighten the totals.
  chain::MempoolConfig mempool;
  /// Cap on the resolved cross-msg content cache (DESIGN.md §14): evicted
  /// batches are re-fetchable through the resolution protocol, so the
  /// store degrades to a bounded cache. 0 fields = unbounded.
  common::CapacityPolicy content_store;
  /// Address of this subnet's SA in the parent chain (invalid for root).
  Address sa_in_parent;
  /// Re-wire an existing network id instead of registering a fresh one.
  /// Set by Hierarchy::restart_node: a restarted validator keeps its
  /// transport identity (and metric labels) across the crash.
  std::optional<net::NodeId> reuse_net_id;
  /// Scheduler execution domain (lane) this node's events run in; 0 is
  /// the root/global lane. Hierarchy assigns one domain per subnet so the
  /// ParallelExecutor can run subnets concurrently (DESIGN.md §11).
  sim::DomainId domain = 0;
  /// Simulated durable medium for this validator (DESIGN.md §15). Owned by
  /// the Hierarchy so it survives crash_node/restart_node; nullptr runs the
  /// node fully volatile (the pre-durability behavior, still the default).
  storage::DurableStore* disk = nullptr;
  /// Commit WAL records are fsynced every N blocks (lazy batching); vote
  /// state is ALWAYS fsynced before the signed message leaves the node.
  std::uint32_t wal_fsync_every_blocks = 4;
  /// Bounded chain retention (DESIGN.md §17): keep only the newest blocks
  /// under this cap, pruning history. Catch-up and state_at replay need
  /// the pruned blocks, so bound only with a window comfortably beyond
  /// replica lag. 0 fields = unbounded (full history, the default).
  common::CapacityPolicy chain_retention;
  /// Export node_mem_bytes / node_mem_peak_bytes gauges (DESIGN.md §17).
  /// Off by default so existing metric exports stay byte-identical.
  bool mem_metrics = false;
};

/// Counter snapshot exposed for benches and tests; backed by the metrics
/// registry (families node_* labeled {node, subnet}) and assembled on read.
/// The checkpoint counts are read from CheckpointDuty, their owner.
struct NodeStats {
  std::uint64_t blocks_committed = 0;
  /// Block executions (build, validate, commit fallback, WAL replay). On a
  /// healthy run every committed block is executed exactly once.
  std::uint64_t block_executions = 0;
  std::uint64_t user_msgs_executed = 0;
  std::uint64_t cross_msgs_executed = 0;
  std::uint64_t pulls_sent = 0;
  std::uint64_t pushes_sent = 0;
  std::uint64_t resolves_served = 0;
};

class SubnetNode final : public consensus::BlockSource,
                         public consensus::VoteStore {
 public:
  /// `genesis_state` is shared immutable (DESIGN.md §17): every replica
  /// of a subnet points at the same flushed tree; the node copies it once
  /// into its mutable head state. Callers sharing one tree must flush it
  /// before sharing and boot nodes from driver context.
  SubnetNode(sim::Scheduler& scheduler, net::Network& network,
             const chain::ActorRegistry& registry, NodeConfig config,
             crypto::KeyPair key, consensus::ValidatorSet validators,
             std::shared_ptr<const chain::StateTree> genesis_state);
  ~SubnetNode() override;

  SubnetNode(const SubnetNode&) = delete;
  SubnetNode& operator=(const SubnetNode&) = delete;

  /// Wire the trusted parent view (must outlive this node; may be nullptr
  /// while every parent replica is crashed). Root: none. Maintains the
  /// parent's viewer count — views are only published on nodes that
  /// actually have child readers (DESIGN.md §17). Driver context
  /// only (lanes parked): may publish a view on the new parent.
  void attach_parent(SubnetNode* parent);
  [[nodiscard]] SubnetNode* parent_view() const { return parent_; }

  void start();
  void stop();

  // ----------------------------------------------------------- client API
  /// Inject a signed message locally and gossip it to the subnet.
  Status submit_message(chain::SignedMessage msg);

  /// Schedule `fn` onto this node's scheduler lane after `delay` (0 = next
  /// window at the current time). Client-side work posted this way — load
  /// generators signing and submitting transactions — executes inside the
  /// subnet's domain, so it runs in parallel with other subnets under the
  /// ParallelExecutor and stays deterministic at any thread count. Call
  /// from driver context only (between run_for/run_until slices).
  void post(sim::Duration delay, std::function<void()> fn);

  [[nodiscard]] const chain::ChainStore& chain() const { return *store_; }
  [[nodiscard]] const chain::StateTree& state() const {
    return store_->state();
  }
  [[nodiscard]] TokenAmount balance(const Address& addr) const;
  /// Account nonce for building messages.
  [[nodiscard]] std::uint64_t account_nonce(const Address& addr) const;
  /// Decoded SCA state of this subnet chain.
  [[nodiscard]] actors::ScaState sca_state() const;
  /// Decoded SA state of a child subnet (SA lives on THIS chain).
  [[nodiscard]] std::optional<actors::SaState> sa_state(
      const Address& sa) const;

  // ----------------------------------------------------- parent view
  // Child nodes run in a different scheduler lane than their parent; they
  // must read the parent through the head state published at the last
  // window barrier, never through the live accessors above (DESIGN.md
  // §11). While no view is published (no child attached), these read live
  // state.
  /// The published head's SCA state: its blob's memo, shared by every
  /// reader.
  [[nodiscard]] std::shared_ptr<const actors::ScaState> sca_state_view()
      const;
  /// The published head's nonce of a child validator's account.
  [[nodiscard]] std::uint64_t account_nonce_view(const Address& addr) const;
  /// The published head's state of a child subnet's SA: its blob's memo,
  /// shared; null when absent.
  [[nodiscard]] std::shared_ptr<const actors::SaState> sa_state_view(
      const Address& sa) const;

  /// Publish the current head state as the parent view. The head is an
  /// immutable shared tree (ChainStore::state_ptr), so this shares it
  /// rather than copying it; later commits replace the head and leave the
  /// published tree untouched for the rest of the window. Called by
  /// Hierarchy between execution windows (never concurrently with lane
  /// callbacks). Viewer-gated (DESIGN.md §17): a node with no attached
  /// child readers publishes nothing, so a leaf never pins a superseded
  /// head. Readers in driver context fall back to live state, which
  /// post-barrier equals what the view would hold.
  void publish_view();

  /// Nodes currently reading this node as their trusted parent view.
  [[nodiscard]] std::size_t viewer_count() const {
    return static_cast<std::size_t>(viewers_);
  }

  /// Deterministic logical memory footprint of this replica: chain window
  /// + head state + resolved-content cache + a published view that is no
  /// longer the head. The shared genesis tree is excluded (counted once
  /// per subnet, not per replica).
  [[nodiscard]] std::size_t mem_bytes() const;

  [[nodiscard]] NodeStats stats() const;
  [[nodiscard]] net::NodeId net_id() const { return net_id_; }
  [[nodiscard]] storage::ContentStore& content_store() { return resolved_; }

  /// Mempool occupancy/caps/shed ledger, exposed for invariant checks and
  /// benches (read from this node's lane, or driver context with lanes
  /// parked).
  [[nodiscard]] std::size_t mempool_size() const { return mempool_.size(); }
  [[nodiscard]] const common::ShedStats& mempool_shed_stats() const {
    return mempool_.shed_stats();
  }

  /// Adjust the block-size ceiling (benches model per-chain capacity).
  void set_max_user_msgs_per_block(std::size_t n) {
    config_.max_user_msgs_per_block = n;
  }

  /// Toggle the push leg of content resolution (paper §IV-C; on by
  /// default); pull always remains available. Benches compare the two.
  void set_push_resolution(bool enabled) { push_resolution_ = enabled; }

  /// This node's checkpoint duty: fault plans arm its adversary, the chaos
  /// runner reads its pending fraud proofs.
  [[nodiscard]] CheckpointDuty& checkpoint_duty() { return checkpoint_; }

  /// Receipts of the block committed at `height` (local execution record).
  [[nodiscard]] const std::vector<chain::Receipt>* receipts_at(
      chain::Epoch height) const;

  /// Historic state reconstruction (replay from genesis); used to build
  /// §III-C recovery proofs against checkpointed state roots.
  [[nodiscard]] Result<chain::StateTree> state_at(chain::Epoch height) const {
    return store_->state_at(height, executor_);
  }

  // -------------------------------------------------- durability (§15)
  /// Chain height reconstructed from the WAL at construction (0 = nothing
  /// replayed: fresh boot, volatile node, or lost disk).
  [[nodiscard]] chain::Epoch recovered_height() const {
    return recovered_height_;
  }
  /// WAL replay outcome of this node's construction (all zero when no
  /// disk was attached). Exposed for recovery tests and invariants.
  [[nodiscard]] const storage::DurableLog::RecoverStats& recovery_stats()
      const {
    return recovery_stats_;
  }

  // ------------------------------------------------ VoteStore interface
  // The consensus engine's write-ahead barrier: persist() lands the vote
  // state in the WAL and fsyncs BEFORE the signed vote leaves the node;
  // recovered() surfaces the last vote-state record replayed at boot.
  void persist(BytesView state) override;
  [[nodiscard]] std::optional<Bytes> recovered() const override {
    return recovered_votes_;
  }

  // ------------------------------------------------- BlockSource interface
  [[nodiscard]] chain::Block build_block(const Address& miner,
                                         Bytes ticket) override;
  [[nodiscard]] Status validate_block(const chain::Block& block) override;
  void commit_block(chain::Block block, Bytes proof) override;
  [[nodiscard]] chain::Epoch head_height() const override {
    return store_->height();
  }
  [[nodiscard]] Cid head_cid() const override { return store_->head().cid(); }
  [[nodiscard]] std::optional<chain::Block> block_at(
      chain::Epoch height) const override;
  [[nodiscard]] Bytes proof_at(chain::Epoch height) const override;

 private:
  /// Collect the implicit cross-msg section for the next block (top-down
  /// from the parent view, resolved bottom-up batches, checkpoint cut).
  [[nodiscard]] std::vector<chain::Message> gather_cross_messages();

  /// Validate the implicit section of a proposed block against the parent
  /// view and local SCA state.
  [[nodiscard]] Status validate_cross_messages(const chain::Block& block);

  /// One execution of a block on top of the head it extends (DESIGN.md §12
  /// "Execute once"). build_block and a successful validate_block keep it
  /// so commit_block appends the post-state instead of re-running the block.
  struct ExecutedBlock {
    Cid block;   // CID of the executed block
    Cid parent;  // head it was executed on
    chain::StateTree state;  // flushed post-state
    std::vector<chain::Receipt> receipts;
  };

  /// The one execution path (build, validate, commit without a kept result,
  /// WAL replay): apply `block` to a copy of the head, flush, and count the
  /// commitment cost once. `block` (the entry's CID) is left for the caller.
  [[nodiscard]] ExecutedBlock execute(const chain::Block& block,
                                      const std::vector<char>& sig_ok);
  /// Keep an execution for commit_block; the oldest is dropped beyond
  /// kMaxExecuted (round changes and equivocation validate several
  /// candidates at one height).
  void remember(ExecutedBlock run);
  /// The kept execution of block `cid` on the current head, if any.
  [[nodiscard]] ExecutedBlock* find_executed(const Cid& cid);

  /// Post-commit duties: each fresh cut to the checkpoint duty and its
  /// batches pushed, pulls for unresolved metas, then the duty's tick.
  void after_commit(const std::vector<chain::Receipt>& receipts);

  void handle_msgs_topic(const net::Envelope& payload);
  void handle_resolve_topic(const net::Envelope& payload);

  void push_own_batches(const core::Checkpoint& cp);
  void request_missing_batches();

  /// Mirror the mempool's shed ledger into the reason-labelled obs
  /// counters and refresh the occupancy gauges. Lane-local (cheap deltas).
  void sync_mempool_obs();

  /// Drain the executor's and the mempool's signing-payload byte tallies
  /// into `alloc_bytes_total`. Called at deterministic points (after a
  /// validation's execution, a commit and a gossip admission).
  void sync_alloc_obs();

  /// The state tree the parent-facing _view accessors read from.
  [[nodiscard]] const chain::StateTree& view_tree() const;
  /// Decoded SCA state of the head: the memo of the head's SCA blob,
  /// shared, not copied (DESIGN.md §12). Owner lane or driver context only,
  /// like the other live accessors.
  [[nodiscard]] std::shared_ptr<const actors::ScaState> head_sca() const;

  /// Replay the WAL (blocks, checkpoints, vote state) into a freshly built
  /// genesis store, then physically truncate the damaged tail. Runs in the
  /// constructor, before the engine exists; no gossip, no signing.
  void recover_from_wal();
  /// Append one record to the WAL (no fsync).
  void wal_record(storage::WalRecordType type, chain::Epoch height,
                  Bytes payload, Bytes aux = {});
  /// Append a committed block (+ proof) to the WAL, fsyncing lazily every
  /// `wal_fsync_every_blocks` commits.
  void wal_append_block(const chain::Block& block, const Bytes& proof);

  /// Feed the tracer and latency histograms from a freshly committed block:
  /// opens/closes the cross-net and checkpoint pipeline flows derived from
  /// the block's implicit messages and SCA events. Flows dedupe across
  /// replica nodes (first committer wins), so each protocol event is
  /// recorded exactly once per hierarchy.
  void observe_commit(const chain::Block& block,
                      const std::vector<chain::Receipt>& receipts);
  void observe_cross_event(const chain::ActorEvent& event);

  sim::Scheduler& scheduler_;
  net::Network& network_;
  const chain::ActorRegistry& registry_;
  NodeConfig config_;
  net::NodeId net_id_;

  std::unique_ptr<chain::ChainStore> store_;
  chain::Mempool mempool_;
  chain::Executor executor_;
  std::unique_ptr<consensus::Engine> engine_;
  SubnetNode* parent_ = nullptr;

  /// Parent view (DESIGN.md §11): the head state shared at the last window
  /// barrier. Readers in other lanes only ever dereference this pointer,
  /// which publish_view() swaps between windows; commits inside the window
  /// install a new head and never touch the published tree. Null until a
  /// child attaches (viewer gating, §17).
  std::shared_ptr<const chain::StateTree> view_published_;
  /// Child nodes holding this node as parent view; maintained by
  /// attach_parent()/~SubnetNode from driver context. The view above is
  /// only published while this is > 0.
  int viewers_ = 0;
  /// Bump the viewer count; publishes an immediate view for the first
  /// viewer instead of waiting for the next barrier.
  void add_viewer();
  /// Drop one viewer; the last one releases the view.
  void remove_viewer();

  /// Resolved cross-msg batches (local cache + registry mirror).
  storage::ContentStore resolved_;
  /// Executions kept by build/validate for the next commit; emptied
  /// whenever the head moves.
  std::vector<ExecutedBlock> executed_;
  static constexpr std::size_t kMaxExecuted = 4;

  /// Receipts of the most recent committed heights.
  std::map<chain::Epoch, std::vector<chain::Receipt>> receipts_;

  /// Per-unresolved-batch pull backoff, keyed by msgs_cid digest. Bounds
  /// the resolution-request flood under overload: at most
  /// kMaxInflightPulls fresh pulls per commit, each CID retried on the
  /// arm_retry schedule instead of every block (DESIGN.md §14).
  std::map<Bytes, RetryState> pull_retry_;
  static constexpr std::size_t kMaxInflightPulls = 4;

  /// Cap on implicit cross-msgs gathered into one block.
  static constexpr std::size_t kMaxCrossMsgsPerBlock = 200;
  /// Push batches to destination subnets when checkpoints are cut.
  bool push_resolution_ = true;

  /// Deterministic jitter stream (seeded from the net id, so replicas
  /// desynchronize their retries but identical runs stay identical).
  /// Shared with the checkpoint duty: each commit draws for pulls first,
  /// then for the duty's submit, share re-gossip and fraud reports.
  sim::Rng retry_rng_;
  CheckpointDuty checkpoint_;

  bool running_ = false;

  // ------------------------------------------------------ durability §15
  /// Borrowed WAL (nullptr = volatile node). Points into config_.disk,
  /// which the Hierarchy keeps alive across crashes.
  storage::DurableLog* wal_ = nullptr;
  /// Last kVoteState payload replayed at boot (last-wins).
  std::optional<Bytes> recovered_votes_;
  /// Head height right after WAL replay (0 = nothing replayed).
  chain::Epoch recovered_height_ = 0;
  storage::DurableLog::RecoverStats recovery_stats_;
  /// Block records appended since the last fsync barrier.
  std::uint32_t wal_unsynced_blocks_ = 0;
  /// True for nodes rebuilt via restart (reuse_net_id): the first commit
  /// past recovered_height_ closes the resync latency measurement.
  bool resync_pending_ = false;
  sim::Time boot_time_ = 0;

  // ------------------------------------------------------- observability
  // Shared with every node of the hierarchy via the network's Obs; counter
  // handles are resolved once in the constructor (see src/obs/).
  obs::Obs& obs_;
  obs::Counter* c_blocks_committed_;
  obs::Counter* c_block_executions_;
  obs::Counter* c_user_msgs_;
  obs::Counter* c_cross_msgs_;
  obs::Counter* c_pulls_sent_;
  obs::Counter* c_pushes_sent_;
  obs::Counter* c_resolves_served_;
  /// Incremental state-commitment cost (DESIGN.md §12): scraped from
  /// StateTree::commit_stats() once per block execution.
  obs::Counter* c_state_leaf_rehashes_;
  obs::Counter* c_state_flush_hits_;
  /// Reason-labelled mempool shed counters ({node, subnet, reason}),
  /// mirrored from Mempool::shed_stats() by sync_mempool_obs().
  obs::Counter* c_mempool_shed_[common::kShedReasonCount];
  obs::Gauge* g_mempool_;
  obs::Gauge* g_mempool_peak_;
  /// Signing-payload bytes encoded ({node, subnet}), drained from the
  /// executor's and mempool's tallies by sync_alloc_obs().
  obs::Counter* c_alloc_bytes_;
  obs::Histogram* h_commit_latency_;
  /// Durability counters ({node, subnet}); resolved only when a disk is
  /// attached, so volatile topologies keep their metrics export (and chaos
  /// fingerprints) byte-identical to the pre-durability builds.
  obs::Counter* c_wal_appends_ = nullptr;
  obs::Counter* c_wal_fsyncs_ = nullptr;
  obs::Counter* c_recovery_replayed_ = nullptr;
  obs::Counter* c_recovery_truncated_bytes_ = nullptr;
  obs::Counter* c_recovery_corrupt_ = nullptr;
  /// Sim-time from restart to the first commit past the recovered head.
  obs::Histogram* h_recovery_resync_ = nullptr;
  /// Memory gauges ({node, subnet}); resolved only with
  /// NodeConfig::mem_metrics, so default exports stay byte-identical
  /// (same opt-in pattern as the durability counters above).
  obs::Gauge* g_mem_bytes_ = nullptr;
  obs::Gauge* g_mem_peak_ = nullptr;
  std::int64_t mem_peak_ = 0;
  /// Refresh the memory gauges from mem_bytes() (height-paced).
  void refresh_mem_metrics();
  /// Last-synced copy of the mempool shed ledger (delta source).
  common::ShedStats mempool_obs_synced_;

  /// Add one tree's accumulated commitment stats to the node counters.
  void record_state_stats(const chain::StateTree& tree);
};

}  // namespace hc::runtime
