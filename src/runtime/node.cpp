#include "runtime/node.hpp"

#include <algorithm>

#include "actors/methods.hpp"
#include "actors/util.hpp"
#include "common/log.hpp"
#include "obs/profile.hpp"

namespace hc::runtime {

namespace {

// ---- trace flow keys ---------------------------------------------------
// Flow keys must be derivable at BOTH endpoints of a protocol stage from
// the data each side observes in committed state; see observe_commit().

/// End-to-end identity of one cross-net message. Built from fields the SCA
/// preserves across hops (per-hop nonces are reassigned, so they cannot
/// key the e2e span).
std::string xmsg_key(const core::CrossMsg& cross) {
  return "xmsg:" + cross.from_subnet.to_string() + ">" +
         cross.to_subnet.to_string() + ":" + cross.msg.from.to_string() +
         ">" + cross.msg.to.to_string() + ":" + cross.msg.value.to_string();
}

/// Open the end-to-end span of `cross` where it enters the system.
void begin_e2e(obs::Tracer& tracer, const core::CrossMsg& cross) {
  tracer.flow_begin(xmsg_key(cross), "crossmsg.e2e", "xnet",
                    {{"from", cross.from_subnet.to_string()},
                     {"to", cross.to_subnet.to_string()}});
}

/// One top-down hop into `hop`, keyed by the hop-scoped nonce.
std::string topdown_key(const core::SubnetId& hop, std::uint64_t nonce) {
  return "td:" + hop.to_string() + ":" + std::to_string(nonce);
}

/// Time a burned bottom-up msg waits in `subnet`'s window for the cut.
std::string window_key(const core::SubnetId& subnet,
                       const core::CrossMsg& cross) {
  return "buwin:" + subnet.to_string() + ":" + cross.cid().to_string();
}

/// A cut batch in transit until the parent SCA adopts its meta.
std::string batch_key(const Cid& msgs_cid) {
  return "bubatch:" + msgs_cid.to_string();
}

/// An adopted batch awaiting execution, keyed by the adoption nonce.
std::string buexec_key(const core::SubnetId& subnet, std::uint64_t nonce) {
  return "buexec:" + subnet.to_string() + ":" + std::to_string(nonce);
}

// ---- state reads shared by the live and parent-view accessors ----------

std::uint64_t nonce_in(const chain::StateTree& tree, const Address& addr) {
  const auto* entry = tree.get(addr);
  return entry == nullptr ? 0 : entry->nonce;
}

/// The tree's SCA state: the blob's memo when it has one (every blob the
/// SCA itself wrote does), else a decode; empty when absent or undecodable.
std::shared_ptr<const actors::ScaState> sca_in(const chain::StateTree& tree) {
  const auto* entry = tree.get(chain::kScaAddr);
  if (entry != nullptr) {
    if (auto sca = actors::state_of<actors::ScaState>(entry->state)) {
      return sca;
    }
  }
  return std::make_shared<const actors::ScaState>();
}

/// The SA state at `sa`: its blob's memo, shared; null when absent or
/// undecodable.
std::shared_ptr<const actors::SaState> sa_in(const chain::StateTree& tree,
                                             const Address& sa) {
  const auto* entry = tree.get(sa);
  if (entry == nullptr || entry->code != chain::kCodeSubnetActor) {
    return nullptr;
  }
  return actors::state_of<actors::SaState>(entry->state);
}

}  // namespace

SubnetNode::SubnetNode(sim::Scheduler& scheduler, net::Network& network,
                       const chain::ActorRegistry& registry,
                       NodeConfig config, crypto::KeyPair key,
                       consensus::ValidatorSet validators,
                       std::shared_ptr<const chain::StateTree> genesis_state)
    : scheduler_(scheduler),
      network_(network),
      registry_(registry),
      config_(std::move(config)),
      net_id_(config_.reuse_net_id.has_value() ? *config_.reuse_net_id
                                               : network.add_node()),
      mempool_(config_.mempool),
      executor_(registry_, chain::GasSchedule{}),
      retry_rng_(0x9e3779b97f4a7c15ULL ^ net_id_),
      checkpoint_(config_, network_, net_id_, key, validators, parent_,
                  retry_rng_),
      obs_(network.obs()) {
  const obs::Labels node_labels{{"node", std::to_string(net_id_)},
                                {"subnet", config_.subnet.to_string()}};
  const obs::Labels subnet_labels{{"subnet", config_.subnet.to_string()}};
  auto& m = obs_.metrics;
  c_blocks_committed_ = &m.counter("node_blocks_committed_total", node_labels);
  c_block_executions_ =
      &m.counter("node_block_executions_total", node_labels);
  c_user_msgs_ = &m.counter("node_user_msgs_executed_total", node_labels);
  c_cross_msgs_ = &m.counter("node_cross_msgs_executed_total", node_labels);
  c_pulls_sent_ = &m.counter("node_pulls_sent_total", node_labels);
  c_pushes_sent_ = &m.counter("node_pushes_sent_total", node_labels);
  c_resolves_served_ = &m.counter("node_resolves_served_total", node_labels);
  c_state_leaf_rehashes_ =
      &m.counter("state_leaf_rehashes_total", node_labels);
  c_state_flush_hits_ =
      &m.counter("state_flush_cache_hits_total", node_labels);
  for (std::size_t r = 0; r < common::kShedReasonCount; ++r) {
    obs::Labels labels = node_labels;
    labels.add("reason",
               common::to_string(static_cast<common::ShedReason>(r)));
    c_mempool_shed_[r] = &m.counter("node_mempool_shed_total", labels);
  }
  g_mempool_ = &m.gauge("mempool_size", node_labels);
  g_mempool_peak_ = &m.gauge("mempool_peak_size", node_labels);
  c_alloc_bytes_ = &m.counter("alloc_bytes_total", node_labels);
  h_commit_latency_ = &m.histogram("block_commit_latency_us", subnet_labels);
  resolved_.set_policy(config_.content_store);
  // The shared genesis arrives pre-flushed (Hierarchy flushes once before
  // sharing), so this flush inside make_genesis is a cache hit.
  chain::Block genesis = chain::ChainStore::make_genesis(*genesis_state, 0);
  store_ = std::make_unique<chain::ChainStore>(std::move(genesis),
                                               std::move(genesis_state));
  store_->set_retention(config_.chain_retention);
  if (config_.mem_metrics) {
    g_mem_bytes_ = &m.gauge("node_mem_bytes", node_labels);
    g_mem_peak_ = &m.gauge("node_mem_peak_bytes", node_labels);
  }

  boot_time_ = scheduler_.now();
  if (config_.disk != nullptr) {
    c_wal_appends_ = &m.counter("wal_appends_total", node_labels);
    c_wal_fsyncs_ = &m.counter("wal_fsyncs_total", node_labels);
    c_recovery_replayed_ =
        &m.counter("recovery_replayed_records_total", node_labels);
    c_recovery_truncated_bytes_ =
        &m.counter("recovery_truncated_tail_bytes_total", node_labels);
    c_recovery_corrupt_ =
        &m.counter("recovery_corrupt_records_total", node_labels);
    h_recovery_resync_ =
        &m.histogram("recovery_resync_latency_us", subnet_labels);
    wal_ = &config_.disk->log("wal");
    recover_from_wal();
    resync_pending_ = config_.reuse_net_id.has_value();
  }

  consensus::EngineContext ectx;
  ectx.scheduler = &scheduler_;
  ectx.network = &network_;
  ectx.node = net_id_;
  ectx.topic = Topics::consensus(config_.subnet);
  ectx.key = std::move(key);
  ectx.validators = std::move(validators);
  ectx.source = this;
  if (wal_ != nullptr) ectx.votes = this;
  ectx.restarted = config_.reuse_net_id.has_value();
  ectx.obs = &obs_;
  ectx.scope = config_.subnet.to_string();
  engine_ =
      consensus::make_engine(config_.params.consensus, std::move(ectx),
                             config_.engine);

  // Deliveries to this node must land in its subnet's scheduler lane.
  network_.set_node_domain(net_id_, config_.domain);
  network_.subscribe(net_id_, Topics::msgs(config_.subnet));
  network_.subscribe(net_id_, Topics::consensus(config_.subnet));
  network_.subscribe(net_id_, Topics::signatures(config_.subnet));
  network_.subscribe(net_id_, Topics::resolve(config_.subnet));
  network_.set_topic_handler(
      net_id_, [this](net::NodeId from, const std::string& topic,
                      const net::Envelope& payload) {
        if (topic == Topics::consensus(config_.subnet)) {
          engine_->on_message(from, payload);
        } else if (topic == Topics::msgs(config_.subnet)) {
          handle_msgs_topic(payload);
        } else if (topic == Topics::signatures(config_.subnet)) {
          if (auto gossip = payload.decoded<SigGossip>()) {
            checkpoint_.on_gossip(*gossip.value(), store_->height());
          }
        } else if (topic == Topics::resolve(config_.subnet)) {
          handle_resolve_topic(payload);
        }
      });
}

SubnetNode::~SubnetNode() {
  if (parent_ != nullptr) parent_->remove_viewer();
}

void SubnetNode::attach_parent(SubnetNode* parent) {
  if (parent == parent_) return;
  if (parent_ != nullptr) parent_->remove_viewer();
  parent_ = parent;
  if (parent_ != nullptr) parent_->add_viewer();
}

void SubnetNode::add_viewer() {
  ++viewers_;
  // First viewer: publish immediately (we are in driver context, lanes
  // parked) so the child never reads cross-lane live state.
  if (view_published_ == nullptr) view_published_ = store_->state_ptr();
}

void SubnetNode::remove_viewer() {
  if (--viewers_ == 0) {
    // Last reader gone: release the view. A later attach publishes the
    // then-current head instead of serving a stale one.
    view_published_.reset();
  }
}

void SubnetNode::post(sim::Duration delay, std::function<void()> fn) {
  sim::Scheduler::DomainScope scope(scheduler_, config_.domain);
  scheduler_.schedule(delay, std::move(fn));
}

void SubnetNode::start() {
  // Timers the engine arms here must run in this node's lane, not in the
  // lane of whoever called start() (the driver, or a restart fault).
  sim::Scheduler::DomainScope scope(scheduler_, config_.domain);
  running_ = true;
  // Non-validators run the engine too: they never produce or vote (the
  // engines check set membership) but follow and validate committed blocks.
  engine_->start();
}

void SubnetNode::stop() {
  running_ = false;
  engine_->stop();
}

NodeStats SubnetNode::stats() const {
  NodeStats s;
  s.blocks_committed = c_blocks_committed_->value();
  s.block_executions = c_block_executions_->value();
  s.user_msgs_executed = c_user_msgs_->value();
  s.cross_msgs_executed = c_cross_msgs_->value();
  s.pulls_sent = c_pulls_sent_->value();
  s.pushes_sent = c_pushes_sent_->value();
  s.resolves_served = c_resolves_served_->value();
  return s;
}

void SubnetNode::sync_mempool_obs() {
  const common::ShedStats& shed = mempool_.shed_stats();
  for (std::size_t r = 0; r < common::kShedReasonCount; ++r) {
    const std::uint64_t delta = shed.shed[r] - mempool_obs_synced_.shed[r];
    if (delta > 0) c_mempool_shed_[r]->inc(delta);
  }
  mempool_obs_synced_ = shed;
  g_mempool_->set(static_cast<std::int64_t>(mempool_.size()));
  g_mempool_peak_->set(static_cast<std::int64_t>(shed.peak_items));
}

void SubnetNode::sync_alloc_obs() {
  const std::uint64_t demand =
      executor_.take_payload_bytes() + mempool_.take_payload_bytes();
  if (demand > 0) c_alloc_bytes_->inc(demand);
}

void SubnetNode::record_state_stats(const chain::StateTree& tree) {
  const auto& s = tree.commit_stats();
  if (s.leaf_rehashes > 0) c_state_leaf_rehashes_->inc(s.leaf_rehashes);
  if (s.flush_cache_hits > 0) c_state_flush_hits_->inc(s.flush_cache_hits);
}

Status SubnetNode::submit_message(chain::SignedMessage msg) {
  // A cross-net send entering at this node starts its end-to-end span here,
  // before it even reaches a block — the span covers mempool wait too.
  if (msg.message.to == chain::kScaAddr &&
      msg.message.method == actors::sca_method::kSendCross) {
    if (auto p = decode<actors::CrossParams>(msg.message.params)) {
      core::CrossMsg cross;
      cross.from_subnet = config_.subnet;
      cross.to_subnet = p.value().dest;
      cross.msg.from = msg.message.from;
      cross.msg.to = p.value().to;
      cross.msg.value = msg.message.value;
      begin_e2e(obs_.tracer, cross);
    }
  }
  const Bytes wire = encode(msg);
  const std::uint64_t next_nonce = account_nonce(msg.message.from);
  const Status admitted = mempool_.add(std::move(msg), next_nonce);
  sync_mempool_obs();
  // Backpressure: kOverloaded propagates to the caller, who is expected to
  // retry with exponential backoff (DESIGN.md §14).
  HC_TRY_STATUS(admitted);
  network_.publish(net_id_, Topics::msgs(config_.subnet), wire);
  return ok_status();
}

TokenAmount SubnetNode::balance(const Address& addr) const {
  const auto* entry = store_->state().get(addr);
  return entry == nullptr ? TokenAmount() : entry->balance;
}

std::uint64_t SubnetNode::account_nonce(const Address& addr) const {
  return nonce_in(store_->state(), addr);
}

actors::ScaState SubnetNode::sca_state() const { return *head_sca(); }

std::shared_ptr<const actors::ScaState> SubnetNode::head_sca() const {
  return sca_in(store_->state());
}

std::optional<actors::SaState> SubnetNode::sa_state(const Address& sa) const {
  if (auto state = sa_in(store_->state(), sa)) return *state;
  return std::nullopt;
}

// --------------------------------------------------------------- parent view

const chain::StateTree& SubnetNode::view_tree() const {
  return view_published_ == nullptr ? store_->state() : *view_published_;
}

std::uint64_t SubnetNode::account_nonce_view(const Address& addr) const {
  return nonce_in(view_tree(), addr);
}

std::shared_ptr<const actors::ScaState> SubnetNode::sca_state_view() const {
  return sca_in(view_tree());
}

std::shared_ptr<const actors::SaState> SubnetNode::sa_state_view(
    const Address& sa) const {
  return sa_in(view_tree(), sa);
}

void SubnetNode::publish_view() {
  if (viewers_ == 0) return;  // leaf: no child reader, publish nothing
  view_published_ = store_->state_ptr();
}

std::size_t SubnetNode::mem_bytes() const {
  std::size_t total = store_->mem_bytes() + resolved_.total_bytes();
  // The view usually IS the head (shared, already counted by the store);
  // only a superseded head it still pins adds to the footprint.
  if (view_published_ != nullptr && view_published_ != store_->state_ptr()) {
    total += view_published_->mem_bytes();
  }
  return total;
}

void SubnetNode::refresh_mem_metrics() {
  const auto bytes = static_cast<std::int64_t>(mem_bytes());
  g_mem_bytes_->set(bytes);
  if (bytes > mem_peak_) {
    mem_peak_ = bytes;
    g_mem_peak_->set(bytes);
  }
}

const std::vector<chain::Receipt>* SubnetNode::receipts_at(
    chain::Epoch height) const {
  auto it = receipts_.find(height);
  return it == receipts_.end() ? nullptr : &it->second;
}

std::optional<chain::Block> SubnetNode::block_at(chain::Epoch height) const {
  const auto* b = store_->block_at(height);
  if (b == nullptr) return std::nullopt;
  return *b;
}

Bytes SubnetNode::proof_at(chain::Epoch height) const {
  const Bytes* proof = store_->proof_at(height);
  return proof == nullptr ? Bytes{} : *proof;
}

// --------------------------------------------------------------- building

std::vector<chain::Message> SubnetNode::gather_cross_messages() {
  std::vector<chain::Message> out;
  const chain::Epoch next = store_->height() + 1;
  const auto my_sca = head_sca();

  // 1. Checkpoint cut at period boundaries (paper Fig. 2): freeze the
  //    window and open the signature window.
  if (!config_.subnet.is_root() && config_.params.checkpoint_period > 0 &&
      next % config_.params.checkpoint_period == 0 &&
      next > my_sca->last_own_checkpoint_epoch) {
    actors::CutParams cut;
    cut.epoch = next;
    cut.proof = store_->head().cid();
    chain::Message m;
    m.from = chain::kSystemAddr;
    m.to = chain::kScaAddr;
    m.method = actors::sca_method::kCutCheckpoint;
    m.params = encode(cut);
    out.push_back(std::move(m));
  }

  // 2. Top-down msgs committed by the parent, in nonce order (paper Fig. 3
  //    left: the pool syncs with the parent SCA's state).
  if (parent_ != nullptr) {
    const auto parent_sca = parent_->sca_state_view();
    const auto* entry = parent_sca->find_subnet(config_.sa_in_parent);
    if (entry != nullptr) {
      std::uint64_t expected = my_sca->applied_topdown_nonce;
      for (const auto& cross : entry->topdown_queue) {
        if (out.size() >= kMaxCrossMsgsPerBlock) break;
        if (cross.nonce < expected) continue;
        if (cross.nonce != expected) break;  // queue is nonce-ordered
        chain::Message m;
        m.from = chain::kSystemAddr;
        m.to = chain::kScaAddr;
        m.method = actors::sca_method::kApplyTopDown;
        m.params = encode(cross);
        m.value = cross.msg.value;  // minted into the subnet (paper §IV-A)
        out.push_back(std::move(m));
        ++expected;
      }
    }
  }

  // 3. Adopted bottom-up batches whose content has been resolved, strictly
  //    in adoption-nonce order (paper Fig. 3 right).
  std::uint64_t expected_bu = my_sca->applied_bottomup_nonce;
  for (const auto& pending : my_sca->pending_bottomup) {
    if (out.size() >= kMaxCrossMsgsPerBlock) break;
    if (pending.executed || pending.nonce < expected_bu) continue;
    if (pending.nonce != expected_bu) break;
    auto content = resolved_.get(pending.meta.msgs_cid);
    if (!content.has_value()) break;  // unresolved: order must not be broken
    auto batch = decode<core::CrossMsgBatch>(*content);
    if (!batch) break;
    actors::ApplyBottomUpParams params;
    params.nonce = pending.nonce;
    params.batch = std::move(batch).value();
    chain::Message m;
    m.from = chain::kSystemAddr;
    m.to = chain::kScaAddr;
    m.method = actors::sca_method::kApplyBottomUp;
    m.params = encode(params);
    out.push_back(std::move(m));
    ++expected_bu;
  }
  return out;
}

chain::Block SubnetNode::build_block(const Address& miner, Bytes ticket) {
  static const obs::PhaseId build_phase =
      obs::Profiler::instance().phase("chain/build");
  obs::ProfileScope prof(build_phase);
  chain::Block block;
  block.header.miner = miner;
  block.header.height = store_->height() + 1;
  block.header.parent = store_->head().cid();
  block.header.timestamp = scheduler_.now();
  block.header.ticket = std::move(ticket);

  block.cross_messages = gather_cross_messages();
  block.messages = mempool_.select(
      config_.max_user_msgs_per_block,
      [this](const Address& a) { return account_nonce(a); });

  ExecutedBlock run = execute(block, executor_.verify_block(block));
  block.header.state_root = run.state.flush();
  block.header.msgs_root = block.compute_msgs_root();
  run.block = block.cid();
  remember(std::move(run));
  return block;
}

Status SubnetNode::validate_cross_messages(const chain::Block& block) {
  const auto my_sca = head_sca();
  std::uint64_t expected_td = my_sca->applied_topdown_nonce;
  std::uint64_t expected_bu = my_sca->applied_bottomup_nonce;
  bool cut_seen = false;

  // Parent view for authenticating top-down msgs.
  const actors::SubnetEntry* parent_entry = nullptr;
  std::shared_ptr<const actors::ScaState> parent_sca;
  if (parent_ != nullptr) {
    parent_sca = parent_->sca_state_view();
    parent_entry = parent_sca->find_subnet(config_.sa_in_parent);
  }

  for (const auto& m : block.cross_messages) {
    if (m.from != chain::kSystemAddr || m.to != chain::kScaAddr) {
      return Error(Errc::kInvalidArgument,
                   "implicit message with non-system envelope");
    }
    switch (m.method) {
      case actors::sca_method::kCutCheckpoint: {
        if (cut_seen) {
          return Error(Errc::kInvalidArgument, "duplicate checkpoint cut");
        }
        cut_seen = true;
        HC_TRY(cut, decode<actors::CutParams>(m.params));
        if (config_.params.checkpoint_period == 0 ||
            block.header.height % config_.params.checkpoint_period != 0 ||
            cut.epoch != block.header.height) {
          return Error(Errc::kInvalidArgument, "cut at wrong epoch");
        }
        if (cut.proof != block.header.parent) {
          return Error(Errc::kInvalidArgument, "cut proof mismatch");
        }
        break;
      }
      case actors::sca_method::kApplyTopDown: {
        HC_TRY(cross, decode<core::CrossMsg>(m.params));
        if (cross.nonce != expected_td) {
          return Error(Errc::kInvalidNonce, "top-down out of order");
        }
        // Authenticity: the message must exist verbatim in the parent
        // SCA's committed queue — a Byzantine proposer cannot mint.
        if (parent_entry == nullptr) {
          return Error(Errc::kUnavailable, "no parent view to verify against");
        }
        const auto it = std::find_if(
            parent_entry->topdown_queue.begin(),
            parent_entry->topdown_queue.end(),
            [&](const core::CrossMsg& q) { return q.nonce == cross.nonce; });
        if (it == parent_entry->topdown_queue.end()) {
          return Error(Errc::kUnavailable,
                       "top-down msg not (yet) visible in parent state");
        }
        if (!(*it == cross)) {
          return Error(Errc::kInvalidArgument, "forged top-down msg");
        }
        if (m.value != cross.msg.value) {
          return Error(Errc::kInvalidArgument, "top-down mint mismatch");
        }
        ++expected_td;
        break;
      }
      case actors::sca_method::kApplyBottomUp: {
        HC_TRY(params, decode<actors::ApplyBottomUpParams>(m.params));
        if (params.nonce != expected_bu) {
          return Error(Errc::kInvalidNonce, "bottom-up out of order");
        }
        const auto it = std::find_if(
            my_sca->pending_bottomup.begin(), my_sca->pending_bottomup.end(),
            [&](const actors::PendingBottomUp& p) {
              return p.nonce == params.nonce;
            });
        if (it == my_sca->pending_bottomup.end()) {
          return Error(Errc::kNotFound, "bottom-up nonce not adopted");
        }
        if (params.batch.cid() != it->meta.msgs_cid) {
          return Error(Errc::kInvalidArgument, "bottom-up batch forged");
        }
        // Side benefit: blocks disseminate batch content to validators
        // that missed both push and pull.
        (void)resolved_.put_verified(it->meta.msgs_cid, encode(params.batch));
        ++expected_bu;
        break;
      }
      default:
        return Error(Errc::kInvalidArgument, "unexpected implicit method");
    }
  }
  return ok_status();
}

Status SubnetNode::validate_block(const chain::Block& block) {
  static const obs::PhaseId validate_phase =
      obs::Profiler::instance().phase("chain/validate");
  obs::ProfileScope prof(validate_phase);
  if (block.header.height != store_->height() + 1) {
    return Error(Errc::kStateConflict, "height does not extend head");
  }
  if (block.header.parent != store_->head().cid()) {
    return Error(Errc::kStateConflict, "parent does not match head");
  }
  if (block.header.msgs_root != block.compute_msgs_root()) {
    return Error(Errc::kInvalidArgument, "msgs root mismatch");
  }
  HC_TRY_STATUS(validate_cross_messages(block));
  // One pass through the signature cache; execution below reuses the
  // outcomes instead of resolving every signature again.
  const std::vector<char> sig_ok = executor_.verify_block(block);
  if (std::find(sig_ok.begin(), sig_ok.end(), 0) != sig_ok.end()) {
    return Error(Errc::kInvalidSignature, "unsigned user message in block");
  }
  const Cid cid = block.cid();
  // Already executed on this head (our own build, or an earlier validation
  // of the same candidate): the kept post-state matched this header's
  // state root when it was kept.
  if (find_executed(cid) != nullptr) return ok_status();
  ExecutedBlock run = execute(block, sig_ok);
  sync_alloc_obs();
  if (run.state.flush() != block.header.state_root) {
    return Error(Errc::kInvalidArgument, "state root mismatch");
  }
  run.block = cid;
  remember(std::move(run));
  return ok_status();
}

SubnetNode::ExecutedBlock SubnetNode::execute(
    const chain::Block& block, const std::vector<char>& sig_ok) {
  ExecutedBlock run;
  run.parent = store_->head().cid();
  run.state = store_->state().snapshot();
  run.receipts = executor_.apply_block(run.state, block, sig_ok);
  (void)run.state.flush();
  // A snapshot starts with zeroed stats, so this is exactly the cost of
  // this one execution and flush; later cache-hit flushes (append) are
  // not real work and stay uncounted.
  record_state_stats(run.state);
  c_block_executions_->inc();
  return run;
}

void SubnetNode::remember(ExecutedBlock run) {
  if (executed_.size() >= kMaxExecuted) executed_.erase(executed_.begin());
  executed_.push_back(std::move(run));
}

SubnetNode::ExecutedBlock* SubnetNode::find_executed(const Cid& cid) {
  const Cid head = store_->head().cid();
  for (ExecutedBlock& run : executed_) {
    if (run.block == cid && run.parent == head) return &run;
  }
  return nullptr;
}

void SubnetNode::commit_block(chain::Block block, Bytes proof) {
  static const obs::PhaseId commit_phase =
      obs::Profiler::instance().phase("chain/commit");
  obs::ProfileScope prof(commit_phase);
  const chain::Epoch height = block.header.height;
  // Take the post-state build/validate already computed for this block on
  // this head; otherwise (a certificate commit on a replica that never
  // validated it) run the same execution path now.
  ExecutedBlock run;
  if (ExecutedBlock* kept = find_executed(block.cid())) {
    run = std::move(*kept);
  } else {
    run = execute(block, executor_.verify_block(block));
  }
  if (Status ok = store_->append(std::move(block), std::move(run.state),
                                std::move(proof));
      !ok) {
    LogLine(LogLevel::kError, config_.subnet.to_string())
            .kv("height", height)
        << "commit failed: " << ok.error().to_string();
    return;
  }
  executed_.clear();  // every kept execution extended the old head
  const chain::Block& committed = store_->head();
  wal_append_block(committed, *store_->proof_at(height));
  if (resync_pending_ && height > recovered_height_) {
    // First live commit past the recovered head: the restarted replica has
    // fully rejoined (WAL replay + network tail catch-up).
    resync_pending_ = false;
    h_recovery_resync_->observe(scheduler_.now() - boot_time_);
  }

  mempool_.remove_included(committed.messages);
  mempool_.prune_stale([this](const Address& a) { return account_nonce(a); });
  sync_mempool_obs();
  sync_alloc_obs();
  // Height-paced so every replica samples at the same commits regardless
  // of wall-clock (deterministic exports); O(actors) per sample.
  if (g_mem_bytes_ != nullptr && height % 8 == 0) refresh_mem_metrics();

  c_blocks_committed_->inc();
  h_commit_latency_->observe(scheduler_.now() - committed.header.timestamp);
  receipts_[height] = std::move(run.receipts);
  const std::vector<chain::Receipt>& receipts = receipts_[height];
  const std::size_t n_cross = committed.cross_messages.size();
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    if (!receipts[i].ok()) continue;
    if (i < n_cross) {
      c_cross_msgs_->inc();
    } else {
      c_user_msgs_->inc();
    }
  }
  observe_commit(committed, receipts);
  if (receipts_.size() > 64) receipts_.erase(receipts_.begin());

  after_commit(receipts);
}

// --------------------------------------------------------- durability §15

void SubnetNode::recover_from_wal() {
  const std::vector<storage::WalRecord> records =
      storage::wal_recover(*wal_, &recovery_stats_);
  for (const storage::WalRecord& rec : records) {
    switch (rec.type) {
      case storage::WalRecordType::kBlock: {
        auto block_r = decode<chain::Block>(rec.payload);
        if (!block_r) break;
        chain::Block block = std::move(block_r).value();
        // Replay is a strict prefix: any gap (e.g. a dropped record) stops
        // block application; later records for higher heights are skipped.
        if (block.header.height != store_->height() + 1) break;
        ExecutedBlock run = execute(block, executor_.verify_block(block));
        (void)store_->append(std::move(block), std::move(run.state), rec.aux);
        break;
      }
      case storage::WalRecordType::kCheckpoint: {
        if (auto cp_r = decode<core::Checkpoint>(rec.payload)) {
          checkpoint_.restore(cp_r.value());
        }
        break;
      }
      case storage::WalRecordType::kVoteState:
        recovered_votes_ = rec.payload;  // last record wins
        break;
    }
  }
  recovered_height_ = store_->height();
  // Physically drop the damaged tail (torn/corrupt frames must never sit
  // under fresh appends) and barrier the surviving prefix.
  wal_->truncate(wal_->size_bytes() - recovery_stats_.truncated_bytes);
  wal_->fsync();
  if (!records.empty()) c_recovery_replayed_->inc(records.size());
  if (recovery_stats_.truncated_bytes > 0) {
    c_recovery_truncated_bytes_->inc(recovery_stats_.truncated_bytes);
  }
  if (recovery_stats_.corrupt_records > 0) {
    c_recovery_corrupt_->inc(recovery_stats_.corrupt_records);
  }
}

void SubnetNode::persist(BytesView state) {
  if (wal_ == nullptr) return;
  wal_record(storage::WalRecordType::kVoteState, store_->height(),
             Bytes(state.begin(), state.end()));
  // Write-ahead barrier: the vote state must reach the medium BEFORE the
  // signed message leaves this node. Also flushes lazily pending blocks.
  wal_->fsync();
  wal_unsynced_blocks_ = 0;
  c_wal_fsyncs_->inc();
}

void SubnetNode::wal_record(storage::WalRecordType type, chain::Epoch height,
                            Bytes payload, Bytes aux) {
  storage::wal_append(*wal_, {type, static_cast<std::uint64_t>(height),
                              std::move(payload), std::move(aux)});
  c_wal_appends_->inc();
}

void SubnetNode::wal_append_block(const chain::Block& block,
                                  const Bytes& proof) {
  if (wal_ == nullptr) return;
  wal_record(storage::WalRecordType::kBlock, block.header.height,
             encode(block), proof);
  if (++wal_unsynced_blocks_ >=
      std::max<std::uint32_t>(1, config_.wal_fsync_every_blocks)) {
    wal_->fsync();
    c_wal_fsyncs_->inc();
    wal_unsynced_blocks_ = 0;
  }
}

// ---------------------------------------------------------- observability

void SubnetNode::observe_commit(const chain::Block& block,
                                const std::vector<chain::Receipt>& receipts) {
  auto& tracer = obs_.tracer;
  const std::size_t n_cross =
      std::min(block.cross_messages.size(), receipts.size());
  // A cross-msg arriving at its destination closes its end-to-end span.
  const auto arrive = [&](const core::CrossMsg& cross) {
    if (!(cross.to_subnet == config_.subnet)) return;
    if (auto d = tracer.flow_end(xmsg_key(cross))) {
      obs_.metrics
          .histogram("cross_msg_e2e_latency_us",
                     obs::Labels{{"subnet", config_.subnet.to_string()}})
          .observe(*d);
    }
  };

  // The implicit section tells us which cross-net messages ARRIVED in this
  // block; SCA events (below) tell us which ones departed.
  for (std::size_t i = 0; i < n_cross; ++i) {
    if (!receipts[i].ok()) continue;
    const chain::Message& m = block.cross_messages[i];
    if (m.method == actors::sca_method::kApplyTopDown) {
      auto cross_r = decode<core::CrossMsg>(m.params);
      if (!cross_r) continue;
      const core::CrossMsg cross = std::move(cross_r).value();
      tracer.flow_end(topdown_key(config_.subnet, cross.nonce));
      arrive(cross);
    } else if (m.method == actors::sca_method::kApplyBottomUp) {
      auto p_r = decode<actors::ApplyBottomUpParams>(m.params);
      if (!p_r) continue;
      const actors::ApplyBottomUpParams p = std::move(p_r).value();
      tracer.flow_end(buexec_key(config_.subnet, p.nonce));
      for (const core::CrossMsg& cross : p.batch.msgs) arrive(cross);
    }
  }

  for (const auto& receipt : receipts) {
    if (!receipt.ok()) continue;
    for (const auto& event : receipt.events) observe_cross_event(event);
  }
}

void SubnetNode::observe_cross_event(const chain::ActorEvent& event) {
  auto& tracer = obs_.tracer;
  const std::string self = config_.subnet.to_string();

  if (event.kind == "sca/topdown") {
    // A cross-msg frozen here and enqueued for the next hop down.
    auto cross_r = decode<core::CrossMsg>(event.payload);
    if (!cross_r) return;
    const core::CrossMsg cross = std::move(cross_r).value();
    begin_e2e(tracer, cross);
    const core::SubnetId hop = config_.subnet.down_toward(cross.to_subnet);
    tracer.flow_begin(topdown_key(hop, cross.nonce), "crossmsg.topdown.hop",
                      hop.to_string(),
                      {{"nonce", std::to_string(cross.nonce)}});
  } else if (event.kind == "sca/release") {
    // Burned into this subnet's bottom-up window.
    auto cross_r = decode<core::CrossMsg>(event.payload);
    if (!cross_r) return;
    const core::CrossMsg cross = std::move(cross_r).value();
    begin_e2e(tracer, cross);
    tracer.flow_begin(window_key(config_.subnet, cross),
                      "crossmsg.bottomup.window", self);
  } else if (event.kind == "sca/checkpoint-cut") {
    auto cp_r = decode<core::Checkpoint>(event.payload);
    if (!cp_r) return;
    const core::Checkpoint cp = std::move(cp_r).value();
    // The cut drains the window into batches...
    tracer.flow_end_prefix("buwin:" + self + ":");
    for (const core::CrossMsgMeta& meta : cp.cross_meta) {
      tracer.flow_begin(batch_key(meta.msgs_cid), "crossmsg.batch.transit",
                        self,
                        {{"from", meta.from.to_string()},
                         {"to", meta.to.to_string()}});
    }
    // ...and opens the checkpoint pipeline: overall (cut -> parent commit)
    // plus the signature-collection leg (cut -> submit).
    tracer.flow_begin(checkpoint_flow_key("cp", cp.source, cp.epoch),
                      "checkpoint.pipeline", cp.source.to_string(),
                      {{"epoch", std::to_string(cp.epoch)}});
    tracer.flow_begin(checkpoint_flow_key("cpsign", cp.source, cp.epoch),
                      "checkpoint.sign", cp.source.to_string());
  } else if (event.kind == "sca/bottomup-adopted") {
    // The parent SCA adopted a child batch's meta.
    auto p_r = decode<actors::PendingBottomUp>(event.payload);
    if (!p_r) return;
    const actors::PendingBottomUp pending = std::move(p_r).value();
    tracer.flow_end(batch_key(pending.meta.msgs_cid));
    tracer.flow_begin(buexec_key(config_.subnet, pending.nonce),
                      "crossmsg.batch.pending", self,
                      {{"nonce", std::to_string(pending.nonce)}});
  } else if (event.kind == "sca/checkpoint-committed") {
    // The parent SA/SCA accepted a child checkpoint.
    auto cp_r = decode<core::Checkpoint>(event.payload);
    if (!cp_r) return;
    const core::Checkpoint cp = std::move(cp_r).value();
    tracer.flow_end(checkpoint_flow_key("cpsub", cp.source, cp.epoch));
    if (auto d =
            tracer.flow_end(checkpoint_flow_key("cp", cp.source, cp.epoch))) {
      obs_.metrics
          .histogram("checkpoint_accept_latency_us",
                     obs::Labels{{"subnet", cp.source.to_string()}})
          .observe(*d);
    }
  } else if (event.kind == "sca/slashed") {
    // Fraud resolved on this (parent) chain: close the detection flow
    // opened where the fraud was injected and count the slash, both exactly
    // once per hierarchy (flows dedupe across replicas).
    Decoder dec(event.payload);
    auto records_r = dec.vec<actors::SlashRecord>();
    if (!records_r) return;
    for (const actors::SlashRecord& rec : std::move(records_r).value()) {
      const std::string fraud = fraud_flow_key(
          rec.subnet, rec.epoch, Address::key(rec.signer.to_bytes()));
      if (auto dur = tracer.flow_end(fraud)) {
        obs_.metrics
            .histogram("fraud_detection_latency_us",
                       obs::Labels{{"subnet", rec.subnet.to_string()}})
            .observe(*dur);
      }
      if (tracer.flow_begin("slashed:" + fraud, "fraud.slashed",
                            rec.subnet.to_string())) {
        tracer.flow_end("slashed:" + fraud);  // zero-length dedup marker
        obs_.metrics
            .counter("validators_slashed_total",
                     obs::Labels{{"subnet", rec.subnet.to_string()}})
            .inc();
      }
    }
  } else if (event.kind == "sca/subnet-deactivated") {
    auto id_r = decode<core::SubnetId>(event.payload);
    if (!id_r) return;
    const core::SubnetId id = std::move(id_r).value();
    const std::string key = "deact:" + id.to_string();
    if (tracer.flow_begin(key, "subnet.deactivated", id.to_string())) {
      tracer.flow_end(key);  // zero-length dedup marker
      obs_.metrics
          .counter("subnets_deactivated_total",
                   obs::Labels{{"subnet", id.to_string()}})
          .inc();
    }
  }
}

// ------------------------------------------------------------ post-commit

void SubnetNode::after_commit(const std::vector<chain::Receipt>& receipts) {
  if (!running_) return;
  const chain::Epoch head = store_->height();
  // A freshly cut checkpoint: the duty signs it; we push its batches.
  for (const auto& receipt : receipts) {
    for (const auto& event : receipt.events) {
      if (event.kind != "sca/checkpoint-cut") continue;
      auto cp_r = decode<core::Checkpoint>(event.payload);
      if (!cp_r) continue;
      const core::Checkpoint cp = std::move(cp_r).value();
      if (wal_ != nullptr) {  // fsynced lazily with the block cadence
        wal_record(storage::WalRecordType::kCheckpoint, cp.epoch,
                   event.payload);
      }
      checkpoint_.on_cut(cp, head);
      if (push_resolution_) push_own_batches(cp);
    }
  }
  request_missing_batches();
  checkpoint_.on_commit(head);
}

void SubnetNode::push_own_batches(const core::Checkpoint& cp) {
  const auto my_sca = head_sca();
  for (const auto& meta : cp.cross_meta) {
    if (!(meta.from == config_.subnet)) continue;  // children push their own
    auto it = my_sca->msg_registry.find(meta.msgs_cid.digest_bytes());
    if (it == my_sca->msg_registry.end()) continue;
    ResolutionMsg push;
    push.kind = ResolutionKind::kPush;
    push.cid = meta.msgs_cid;
    push.content = it->second;
    network_.publish(net_id_, Topics::resolve(meta.to), encode(push));
    c_pushes_sent_->inc();
  }
}

void SubnetNode::request_missing_batches() {
  const auto my_sca = head_sca();
  const chain::Epoch head = store_->height();
  // Keep only retry state for batches still missing; resolved or executed
  // entries drop out so the map stays bounded by the pending set.
  std::set<Bytes> missing;
  std::size_t issued = 0;
  for (const auto& pending : my_sca->pending_bottomup) {
    if (pending.executed) continue;
    if (resolved_.has(pending.meta.msgs_cid)) continue;
    const Bytes key = pending.meta.msgs_cid.digest_bytes();
    missing.insert(key);
    // Backoff per batch CID: the first pull goes out immediately; while a
    // batch stays unresolved, later pulls follow the arm_retry schedule
    // instead of re-flooding the resolve topic every commit. At most
    // kMaxInflightPulls fresh pulls per commit bound the burst.
    RetryState& retry = pull_retry_[key];
    if (retry.attempts > 0 && head < retry.next_height) continue;
    if (issued >= kMaxInflightPulls) continue;
    ++issued;
    arm_retry(retry, head, config_.params.checkpoint_period, retry_rng_);
    ResolutionMsg pull;
    pull.kind = ResolutionKind::kPull;
    pull.cid = pending.meta.msgs_cid;
    pull.reply_to = config_.subnet;
    network_.publish(net_id_, Topics::resolve(pending.meta.from),
                     encode(pull));
    c_pulls_sent_->inc();
  }
  for (auto it = pull_retry_.begin(); it != pull_retry_.end();) {
    it = missing.contains(it->first) ? std::next(it) : pull_retry_.erase(it);
  }
}

// ---------------------------------------------------------------- topics

void SubnetNode::handle_msgs_topic(const net::Envelope& payload) {
  auto msg = payload.decoded<chain::SignedMessage>();
  if (!msg) return;
  const std::uint64_t next_nonce = account_nonce(msg.value()->message.from);
  // Gossip has no caller to backpressure; refused admissions only feed the
  // reason-labelled shed counters. The mempool takes ownership, so copy out
  // of the shared decode (still one parse for N subscribers).
  (void)mempool_.add(*msg.value(), next_nonce);
  sync_mempool_obs();
  sync_alloc_obs();
}

void SubnetNode::handle_resolve_topic(const net::Envelope& payload) {
  auto msg_r = payload.decoded<ResolutionMsg>();
  if (!msg_r) return;
  const std::shared_ptr<const ResolutionMsg> msg = msg_r.value();
  switch (msg->kind) {
    case ResolutionKind::kPush:
    case ResolutionKind::kResolve: {
      // Self-authenticating: only content hashing to the CID is stored.
      // The store aliases the shared decoded object (zero-copy: N replicas
      // and the content store reference one materialization).
      (void)resolved_.put_verified(
          msg->cid, std::shared_ptr<const Bytes>(msg, &msg->content));
      break;
    }
    case ResolutionKind::kPull: {
      // Serve from the on-chain registry (paper §IV-C) or local cache.
      Bytes content;
      const auto my_sca = head_sca();
      auto it = my_sca->msg_registry.find(msg->cid.digest_bytes());
      if (it != my_sca->msg_registry.end()) {
        content = it->second;
      } else if (auto cached = resolved_.get_shared(msg->cid)) {
        content = *cached;
      } else {
        return;
      }
      ResolutionMsg resolve;
      resolve.kind = ResolutionKind::kResolve;
      resolve.cid = msg->cid;
      resolve.content = std::move(content);
      network_.publish(net_id_, Topics::resolve(msg->reply_to),
                       encode(resolve));
      c_resolves_served_->inc();
      break;
    }
  }
}

}  // namespace hc::runtime
