#include "runtime/hierarchy.hpp"

#include <algorithm>
#include <stdexcept>

#include "actors/basic.hpp"
#include "actors/methods.hpp"
#include "actors/registry.hpp"
#include "actors/sa_state.hpp"
#include "actors/sca_state.hpp"
#include "actors/util.hpp"
#include "common/log.hpp"

namespace hc::runtime {

std::size_t Subnet::alive_count() const {
  std::size_t n = 0;
  for (const auto& node : nodes) {
    if (node) ++n;
  }
  return n;
}

SubnetNode& Subnet::api_node() const {
  for (const auto& node : nodes) {
    if (node) return *node;
  }
  throw std::runtime_error("subnet " + id.to_string() +
                           ": every validator is crashed");
}

namespace {

/// Genesis balance of the faucet account that funds users and validators.
constexpr TokenAmount kFaucetBalance = TokenAmount::whole(1000000000);

/// Per-validator collateral of a statically built subnet (TreeSpec).
constexpr TokenAmount kStaticStake = TokenAmount::whole(10);

/// Genesis state shared by every chain: Init actor + SCA.
chain::StateTree base_genesis(const core::SubnetId& self,
                              std::uint32_t checkpoint_period,
                              std::uint64_t topdown_window_cap) {
  chain::StateTree tree;
  chain::ActorEntry init;
  init.code = chain::kCodeInit;
  init.nonce = 100;
  tree.set(chain::kInitAddr, init);
  chain::ActorEntry sca;
  sca.code = chain::kCodeSca;
  sca.state =
      actors::make_sca_ctor_state(self, checkpoint_period, topdown_window_cap);
  tree.set(chain::kScaAddr, sca);
  return tree;
}

/// The model of every cross-lane (= cross-subnet) link, when configured.
std::optional<sim::LatencyModel> cross_model(const HierarchyConfig& cfg) {
  if (!cfg.cross_subnet_latency) return std::nullopt;
  return sim::LatencyModel(cfg.cross_subnet_latency->base,
                           cfg.cross_subnet_latency->jitter);
}

/// Conservative lookahead for the windowed executor: the smallest delay
/// any cross-lane delivery can have. With the cross-subnet model set, every
/// cross-lane link uses it, so its floor IS the bound; otherwise fall back
/// to the base model's floor (smaller than necessary — same-subnet links
/// are same-lane — but always safe).
sim::Duration executor_lookahead(const HierarchyConfig& cfg) {
  return cross_model(cfg).value_or(cfg.latency).min_delay();
}

/// Parent view for validator slot `i` of a child subnet: the first alive
/// parent replica from slot `i` on, round-robin, so views spread across
/// the parent's replicas (paper §II: child nodes run full nodes on the
/// parent subnet). nullptr when every parent replica is crashed.
SubnetNode* parent_view_for(const Subnet& subnet, std::size_t i) {
  const Subnet& parent = *subnet.parent;
  for (std::size_t off = 0; off < parent.size(); ++off) {
    const std::size_t slot = (i + off) % parent.size();
    if (parent.alive(slot)) return parent.nodes[slot].get();
  }
  return nullptr;
}

/// The faucet that funds users and validators on the root chain.
User faucet_identity() {
  const auto key = crypto::KeyPair::from_label("hc/faucet");
  return User{key, Address::key(key.public_key().to_bytes())};
}

/// A message from `from` at its next nonce on `api`'s chain, signed, at
/// gas price 1 atto; each caller picks its gas limit.
chain::SignedMessage sign_next(SubnetNode& api, const User& from,
                               const Address& to, TokenAmount value,
                               chain::MethodNum method, Bytes params,
                               std::uint64_t gas_limit) {
  chain::Message m;
  m.from = from.addr;
  m.to = to;
  m.nonce = api.account_nonce(from.addr);
  m.value = value;
  m.method = method;
  m.params = std::move(params);
  m.gas_limit = gas_limit;
  m.gas_price = TokenAmount::atto(1);
  return chain::SignedMessage::sign(std::move(m), from.key);
}

/// FNV-1a over a string; part of the deterministic disk-fault seed
/// derivation (no OS entropy anywhere in the crash path).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h = (h ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
  }
  return h;
}

consensus::ValidatorSet make_validator_set(
    const std::vector<crypto::KeyPair>& keys) {
  std::vector<consensus::Validator> members;
  members.reserve(keys.size());
  for (const auto& k : keys) {
    members.push_back(consensus::Validator{k.public_key(), 1});
  }
  return consensus::ValidatorSet(std::move(members));
}

}  // namespace

void Hierarchy::init_common() {
  if (auto cross = cross_model(config_)) {
    network_.set_cross_domain_latency(*cross);
  }
  scheduler_.attach_obs(&obs_);
  obs_.tracer.set_clock([this] { return scheduler_.now(); });
  actors::install_standard_actors(registry_);
  // Child nodes read their parent through the view snapshot published at
  // the last barrier (never live state, which another lane may be
  // mutating); flip every alive node's buffer between windows. The flip
  // is viewer-gated: leaves (no attached child readers) skip the snapshot
  // entirely (DESIGN.md §17).
  executor_.add_barrier_hook([this] {
    for (auto& s : subnets_) {
      for (auto& n : s->nodes) {
        if (n) n->publish_view();
      }
    }
  });
}

NodeConfig Hierarchy::node_config(const Subnet& subnet, std::size_t slot) {
  NodeConfig nc;
  nc.subnet = subnet.id;
  nc.params = subnet.params;
  nc.engine = subnet.engine;
  nc.sa_in_parent = subnet.sa;
  nc.domain = subnet.domain;
  nc.mempool = config_.mempool;
  nc.content_store = config_.content_store;
  nc.chain_retention = config_.chain_retention;
  nc.mem_metrics = config_.mem_metrics;
  nc.disk = disk_for(subnet, slot);
  nc.wal_fsync_every_blocks = config_.durability.fsync_every_blocks;
  return nc;
}

void Hierarchy::boot_subnet(Subnet& subnet, chain::StateTree genesis) {
  // Flush ONCE before sharing: flush() mutates the commitment cache, so a
  // published shared tree must already be warm (every later flush is a
  // read-only cache hit).
  (void)genesis.flush();
  subnet.genesis =
      std::make_shared<const chain::StateTree>(std::move(genesis));
  const auto validators = make_validator_set(subnet.validator_keys);
  for (std::size_t i = 0; i < subnet.validator_keys.size(); ++i) {
    auto node = std::make_unique<SubnetNode>(
        scheduler_, network_, registry_, node_config(subnet, i),
        subnet.validator_keys[i], validators, subnet.genesis);
    if (subnet.parent != nullptr) {
      node->attach_parent(parent_view_for(subnet, i));
    }
    subnet.nodes.push_back(std::move(node));
    subnet.node_ids.push_back(subnet.nodes.back()->net_id());
  }
  for (auto& n : subnet.nodes) n->start();
  for (auto& n : subnet.nodes) n->publish_view();
}

Hierarchy::Hierarchy(HierarchyConfig config)
    : config_(std::move(config)),
      network_(scheduler_, config_.latency, config_.seed, config_.gossip,
               &obs_),
      executor_(scheduler_, config_.threads, executor_lookahead(config_)),
      faucet_(faucet_identity()) {
  init_common();

  auto root = std::make_unique<Subnet>();
  root->id = core::SubnetId::root();
  root->params = config_.root_params;
  root->engine = config_.root_engine;
  root->domain = scheduler_.add_domain();
  for (std::size_t i = 0; i < config_.root_validators; ++i) {
    root->validator_keys.push_back(
        crypto::KeyPair::from_label("root-val-" + std::to_string(i)));
  }

  chain::StateTree genesis =
      base_genesis(root->id, config_.root_params.checkpoint_period,
                   config_.topdown_window_cap);
  chain::ActorEntry faucet_entry;
  faucet_entry.code = chain::kCodeAccount;
  faucet_entry.balance = kFaucetBalance;
  genesis.set(faucet_.addr, faucet_entry);
  // Root validators get small gas allowances.
  for (const auto& k : root->validator_keys) {
    chain::ActorEntry v;
    v.code = chain::kCodeAccount;
    v.balance = TokenAmount::whole(1000);
    genesis.set(Address::key(k.public_key().to_bytes()), v);
  }

  root_ = root.get();
  subnets_.push_back(std::move(root));
  boot_subnet(*root_, std::move(genesis));
}

// ----------------------------------------------------- static tree (§17)

struct Hierarchy::Staged {
  std::unique_ptr<Subnet> subnet;
  chain::StateTree genesis;
  /// Σ balances in the composed genesis — the circulating supply the
  /// parent SCA records for this child (firewall bound, paper §II).
  TokenAmount total;
  std::vector<Staged> children;
};

Hierarchy::Hierarchy(HierarchyConfig config, const TreeSpec& spec)
    : config_(std::move(config)),
      network_(scheduler_, config_.latency, config_.seed, config_.gossip,
               &obs_),
      executor_(scheduler_, config_.threads, executor_lookahead(config_)),
      faucet_(faucet_identity()) {
  init_common();
  boot_staged(compose_static(spec, nullptr, Address()));
}

Hierarchy::Staged Hierarchy::compose_static(const TreeSpec& spec,
                                            Subnet* parent,
                                            const Address& sa) {
  if (spec.n_validators == 0) {
    throw std::invalid_argument("static subnet " + spec.name +
                                " needs validators");
  }
  Staged st;
  st.subnet = std::make_unique<Subnet>();
  Subnet& s = *st.subnet;
  s.id = parent == nullptr ? core::SubnetId::root() : parent->id.child(sa);
  s.sa = sa;
  s.params = spec.params;
  s.engine = spec.engine;
  s.parent = parent;
  s.domain = scheduler_.add_domain();
  for (std::size_t i = 0; i < spec.n_validators; ++i) {
    s.validator_keys.push_back(crypto::KeyPair::from_label(
        spec.name + "-val-" + std::to_string(i)));
  }

  // Children compose first: this genesis embeds their registration state
  // and circulating supply.
  st.children.reserve(spec.children.size());
  for (std::size_t k = 0; k < spec.children.size(); ++k) {
    st.children.push_back(
        compose_static(spec.children[k], &s, Address::id(100 + k)));
  }

  chain::StateTree genesis = base_genesis(
      s.id, spec.params.checkpoint_period, config_.topdown_window_cap);
  if (parent == nullptr) {
    // Keep the faucet so make_user()/spawn_subnet() compose with a
    // statically built tree.
    chain::ActorEntry faucet_entry;
    faucet_entry.code = chain::kCodeAccount;
    faucet_entry.balance = kFaucetBalance;
    genesis.set(faucet_.addr, faucet_entry);
  }
  for (const auto& k : s.validator_keys) {
    chain::ActorEntry v;
    v.code = chain::kCodeAccount;
    v.balance = TokenAmount::whole(100);  // gas allowance
    genesis.set(Address::key(k.public_key().to_bytes()), v);
  }
  // Cold account mass: id addresses, no keypairs (1000+j stays clear of
  // the SA range 100+k for any realistic fan-out).
  for (std::size_t j = 0; j < spec.accounts; ++j) {
    chain::ActorEntry a;
    a.code = chain::kCodeAccount;
    a.balance = spec.account_balance;
    genesis.set(Address::id(1000 + j), a);
  }
  for (std::size_t i = 0; i < spec.hot_accounts; ++i) {
    const auto key = crypto::KeyPair::from_label(
        spec.name + "-hot-" + std::to_string(i));
    chain::ActorEntry a;
    a.code = chain::kCodeAccount;
    a.balance = spec.hot_balance;
    genesis.set(Address::key(key.public_key().to_bytes()), a);
  }

  if (!spec.children.empty()) {
    // Fabricate exactly what the deploy→join→register protocol leaves
    // behind: a registered SA actor per child plus the SCA's subnet entry
    // with escrowed collateral and the child's circulating supply. The
    // Init nonce advances past the fabricated deploys so later dynamic
    // spawn_subnet() calls get fresh SA addresses.
    chain::ActorEntry init = *genesis.get(chain::kInitAddr);
    init.nonce = 100 + spec.children.size();
    genesis.set(chain::kInitAddr, init);

    chain::ActorEntry sca_entry = *genesis.get(chain::kScaAddr);
    actors::ScaState sca =
        *actors::state_of<actors::ScaState>(sca_entry.state);
    TokenAmount escrowed;
    for (std::size_t k = 0; k < spec.children.size(); ++k) {
      const TreeSpec& child_spec = spec.children[k];
      const Staged& child = st.children[k];
      const Address child_sa = Address::id(100 + k);

      actors::SaState sa_state;
      sa_state.params = child_spec.params;
      sa_state.subnet_id = child.subnet->id;
      sa_state.registered = true;
      for (const auto& key : child.subnet->validator_keys) {
        sa_state.validators.push_back(
            actors::ValidatorInfo{key.public_key(), kStaticStake});
        sa_state.total_stake += kStaticStake;
      }
      chain::ActorEntry sa_actor;
      sa_actor.code = chain::kCodeSubnetActor;
      sa_actor.state = actors::state_blob(sa_state);
      genesis.set(child_sa, sa_actor);

      // Child validators submit checkpoints to this SA as parent-chain
      // messages paid from their own parent-chain accounts — the join
      // protocol would have left them funded here, so fabricate that too.
      for (const auto& key : child.subnet->validator_keys) {
        const Address addr = Address::key(key.public_key().to_bytes());
        if (!genesis.has(addr)) {
          chain::ActorEntry v;
          v.code = chain::kCodeAccount;
          v.balance = TokenAmount::whole(100);  // gas allowance
          genesis.set(addr, v);
        }
      }

      actors::SubnetEntry entry;
      entry.id = child.subnet->id;
      entry.sa = child_sa;
      entry.collateral = sa_state.total_stake;
      entry.min_collateral = child_spec.params.min_collateral;
      entry.circulating_supply = child.total;
      sca.subnets[child_sa] = entry;
      escrowed += sa_state.total_stake + child.total;
    }
    sca_entry.state = actors::state_blob(std::move(sca));
    sca_entry.balance += escrowed;
    genesis.set(chain::kScaAddr, sca_entry);
  }

  st.total = genesis.total_balance();
  st.genesis = std::move(genesis);
  return st;
}

void Hierarchy::boot_staged(Staged staged) {
  Subnet* s = staged.subnet.get();
  if (s->parent == nullptr) root_ = s;
  subnets_.push_back(std::move(staged.subnet));
  boot_subnet(*s, std::move(staged.genesis));
  // Top-down: children attach their views to the now-running parent nodes.
  for (auto& child : staged.children) boot_staged(std::move(child));
}

Hierarchy::~Hierarchy() {
  for (auto& s : subnets_) {
    for (auto& n : s->nodes) {
      if (n) n->stop();
    }
  }
  // Child nodes detach from their parent's viewer count in ~SubnetNode;
  // destroy deepest-first (creation order is parents-first) so parent_
  // stays valid while children unwind.
  while (!subnets_.empty()) subnets_.pop_back();
}

void Hierarchy::run_for(sim::Duration d) {
  executor_.run_until(scheduler_.now() + d);
}

bool Hierarchy::run_until(const std::function<bool()>& pred,
                          sim::Duration max, sim::Duration step) {
  const sim::Time deadline = scheduler_.now() + max;
  for (;;) {
    if (pred()) return true;
    if (scheduler_.now() >= deadline) return false;
    executor_.run_until(std::min(scheduler_.now() + step, deadline));
  }
}

Result<User> Hierarchy::make_user(const std::string& label, TokenAmount funds,
                                  sim::Duration timeout) {
  User user;
  user.key = crypto::KeyPair::from_label(label + "#" +
                                         std::to_string(label_counter_++));
  user.addr = Address::key(user.key.public_key().to_bytes());

  SubnetNode& api = root_->api_node();
  HC_TRY_STATUS(api.submit_message(
      sign_next(api, faucet_, user.addr, funds, 0, {}, 1u << 22)));
  const bool funded = run_until(
      [&] { return root_->api_node().balance(user.addr) >= funds; }, timeout);
  if (!funded) {
    return Error(Errc::kTimeout, "user funding did not land");
  }
  return user;
}

Status Hierarchy::submit(Subnet& subnet, const User& user, const Address& to,
                         chain::MethodNum method, Bytes params,
                         TokenAmount value) {
  SubnetNode& api = subnet.api_node();
  return api.submit_message(sign_next(api, user, to, value, method,
                                      std::move(params), 1u << 26));
}

Result<chain::Receipt> Hierarchy::call(Subnet& subnet, const User& user,
                                       const Address& to,
                                       chain::MethodNum method, Bytes params,
                                       TokenAmount value,
                                       sim::Duration timeout) {
  const auto sm = sign_next(subnet.api_node(), user, to, value, method,
                            std::move(params), 1u << 26);
  const std::uint64_t nonce = sm.message.nonce;
  HC_TRY_STATUS(subnet.api_node().submit_message(sm));

  // Wait until the account nonce passes ours, then locate the receipt.
  // The endpoint is re-resolved on every poll so a crash of the current
  // api node mid-wait does not leave us polling a dead reference.
  const bool included = run_until(
      [&] { return subnet.api_node().account_nonce(user.addr) > nonce; },
      timeout);
  if (!included) {
    return Error(Errc::kTimeout, "message was not included in time");
  }
  // Find the receipt by scanning recent blocks for our message.
  SubnetNode& api = subnet.api_node();
  const auto& store = api.chain();
  for (chain::Epoch h = store.height(); h >= 1; --h) {
    const auto* block = store.block_at(h);
    if (block == nullptr) break;
    for (std::size_t i = 0; i < block->messages.size(); ++i) {
      if (block->messages[i] == sm) {
        const auto* receipts = api.receipts_at(h);
        if (receipts == nullptr) {
          return Error(Errc::kNotFound, "receipts pruned");
        }
        return (*receipts)[block->cross_messages.size() + i];
      }
    }
  }
  return Error(Errc::kNotFound, "included message not found in chain");
}

Result<Subnet*> Hierarchy::spawn_subnet(Subnet& parent,
                                        const std::string& name,
                                        core::SubnetParams params,
                                        std::size_t n_validators,
                                        TokenAmount stake_each,
                                        consensus::EngineConfig engine,
                                        sim::Duration timeout) {
  if (n_validators == 0) {
    return Error(Errc::kInvalidArgument, "subnet needs validators");
  }

  // 1. Create and fund validator identities on the PARENT chain.
  std::vector<crypto::KeyPair> keys;
  std::vector<User> users;
  for (std::size_t i = 0; i < n_validators; ++i) {
    keys.push_back(crypto::KeyPair::from_label(
        name + "-val-" + std::to_string(i) + "#" +
        std::to_string(label_counter_++)));
    users.push_back(User{keys.back(),
                         Address::key(keys.back().public_key().to_bytes())});
  }
  const TokenAmount validator_funds =
      stake_each + TokenAmount::whole(100);  // stake + gas headroom
  for (const auto& u : users) {
    if (parent.id.is_root()) {
      SubnetNode& api = root_->api_node();
      HC_TRY_STATUS(api.submit_message(sign_next(
          api, faucet_, u.addr, validator_funds, 0, {}, 1u << 22)));
      if (!run_until([&] {
            return root_->api_node().balance(u.addr) >= validator_funds;
          }, timeout)) {
        return Error(Errc::kTimeout, "validator funding did not land");
      }
    } else {
      // Route funds from the root faucet down to the parent subnet.
      HC_TRY(faucet_user, make_user(name + "-route", validator_funds +
                                                         TokenAmount::whole(1),
                                    timeout));
      HC_TRY(receipt,
             send_cross(*root_, faucet_user, parent.id, u.addr,
                        validator_funds));
      if (!receipt.ok()) {
        return Error(Errc::kInternal, "cross-net funding failed: " +
                                          receipt.error);
      }
      if (!run_until([&] {
            return parent.api_node().balance(u.addr) >= validator_funds;
          }, timeout)) {
        return Error(Errc::kTimeout, "cross-net validator funding stalled");
      }
    }
  }

  // 2. Deploy the SA through the parent's Init actor (paper §III-A).
  actors::ExecParams exec;
  exec.code = chain::kCodeSubnetActor;
  exec.ctor_state = actors::make_sa_ctor_state(params);
  HC_TRY(deploy_receipt,
         call(parent, users[0], chain::kInitAddr, actors::init_method::kExec,
              encode(exec), TokenAmount(), timeout));
  if (!deploy_receipt.ok()) {
    return Error(Errc::kInternal, "SA deploy failed: " + deploy_receipt.error);
  }
  HC_TRY(sa_addr, decode<Address>(deploy_receipt.ret));

  // 3. Validators join with stake; the SA registers with the SCA once the
  //    collateral threshold is crossed (paper §III-B).
  for (std::size_t i = 0; i < n_validators; ++i) {
    HC_TRY(join_receipt,
           call(parent, users[i], sa_addr, actors::sa_method::kJoin,
                encode(actors::JoinParams{keys[i].public_key()}), stake_each,
                timeout));
    if (!join_receipt.ok()) {
      return Error(Errc::kInternal, "join failed: " + join_receipt.error);
    }
  }
  const bool registered = run_until(
      [&] {
        const auto sa = parent.api_node().sa_state(sa_addr);
        return sa.has_value() && sa->registered;
      },
      timeout);
  if (!registered) {
    return Error(Errc::kTimeout,
                 "subnet did not register (insufficient collateral?)");
  }

  // 4. Boot the child chain: one node per validator, each holding a parent
  //    view on a distinct parent node (paper §II: child nodes run full
  //    nodes on the parent subnet).
  auto child = std::make_unique<Subnet>();
  child->id = parent.id.child(sa_addr);
  child->sa = sa_addr;
  child->params = params;
  child->engine = engine;
  child->parent = &parent;
  child->domain = scheduler_.add_domain();
  child->validator_keys = keys;

  chain::StateTree genesis = base_genesis(
      child->id, params.checkpoint_period, config_.topdown_window_cap);
  Subnet* out = child.get();
  subnets_.push_back(std::move(child));
  boot_subnet(*out, std::move(genesis));
  return out;
}

storage::DurableStore* Hierarchy::disk_for(const Subnet& subnet,
                                           std::size_t i) {
  if (!config_.durability.enabled) return nullptr;
  return &disks_[subnet.id.to_string() + "#" + std::to_string(i)];
}

const storage::DurableStore* Hierarchy::find_disk(const Subnet& subnet,
                                                  std::size_t i) const {
  const auto it = disks_.find(subnet.id.to_string() + "#" + std::to_string(i));
  return it == disks_.end() ? nullptr : &it->second;
}

Status Hierarchy::crash_node(Subnet& subnet, std::size_t i) {
  // Default power-loss model: the disk survives minus its un-fsynced
  // suffix (storage::DiskFault::Kind::kLoseSuffix).
  return crash_node(subnet, i, storage::DiskFault{});
}

Status Hierarchy::crash_node(Subnet& subnet, std::size_t i,
                             storage::DiskFault fault) {
  if (i >= subnet.nodes.size()) {
    return Error(Errc::kInvalidArgument, "no such validator slot");
  }
  if (!subnet.nodes[i]) {
    return Error(Errc::kInvalidArgument, "validator already crashed");
  }
  SubnetNode* dying = subnet.nodes[i].get();
  dying->stop();

  // Child subnet nodes hold a trusted read view into a parent replica;
  // re-point any view at the dying node to an alive sibling (nullptr when
  // the whole parent subnet is down — restart_node re-adopts them later).
  SubnetNode* replacement = nullptr;
  for (std::size_t j = 0; j < subnet.nodes.size(); ++j) {
    if (j != i && subnet.nodes[j]) {
      replacement = subnet.nodes[j].get();
      break;
    }
  }
  for (auto& s : subnets_) {
    if (s->parent != &subnet) continue;
    for (auto& n : s->nodes) {
      if (n && n->parent_view() == dying) n->attach_parent(replacement);
    }
  }

  // Fail-stop: the endpoint goes dark and the network forgets everything
  // it knew about it (subscriptions, gossip dedup). In-memory state dies
  // with the node; with durability enabled the disk survives below.
  const net::NodeId id = subnet.node_ids.at(i);
  network_.set_node_down(id, true);
  network_.reset_node(id);
  subnet.nodes[i].reset();

  if (storage::DurableStore* disk = disk_for(subnet, i)) {
    // Crash-time damage, deterministically seeded: same config seed, same
    // crash order => byte-identical medium at any thread count.
    ++crash_counter_;
    fault.seed ^= config_.seed ^
                  fnv1a(subnet.id.to_string() + "#" + std::to_string(i)) ^
                  (crash_counter_ * 0x9e3779b97f4a7c15ull);
    disk->crash(fault);
  }
  return ok_status();
}

Status Hierarchy::restart_node(Subnet& subnet, std::size_t i) {
  if (i >= subnet.nodes.size()) {
    return Error(Errc::kInvalidArgument, "no such validator slot");
  }
  if (subnet.nodes[i]) {
    return Error(Errc::kInvalidArgument, "validator is not crashed");
  }

  NodeConfig nc = node_config(subnet, i);
  nc.reuse_net_id = subnet.node_ids.at(i);
  auto node = std::make_unique<SubnetNode>(
      scheduler_, network_, registry_, nc, subnet.validator_keys.at(i),
      make_validator_set(subnet.validator_keys), subnet.genesis);
  if (subnet.parent != nullptr) {
    node->attach_parent(parent_view_for(subnet, i));
  }

  network_.set_node_down(subnet.node_ids.at(i), false);
  subnet.nodes[i] = std::move(node);
  subnet.nodes[i]->start();
  subnet.nodes[i]->publish_view();

  // Re-adopt child nodes orphaned while every replica of this subnet was
  // crashed.
  for (auto& s : subnets_) {
    if (s->parent != &subnet) continue;
    for (auto& n : s->nodes) {
      if (n && n->parent_view() == nullptr) {
        n->attach_parent(subnet.nodes[i].get());
      }
    }
  }
  return ok_status();
}

Result<chain::Receipt> Hierarchy::send_cross(Subnet& from, const User& user,
                                             const core::SubnetId& dest,
                                             const Address& to,
                                             TokenAmount value,
                                             chain::MethodNum method,
                                             Bytes inner_params) {
  actors::CrossParams p;
  p.dest = dest;
  p.to = to;
  p.method = method;
  p.inner_params = std::move(inner_params);
  return call(from, user, chain::kScaAddr, actors::sca_method::kSendCross,
              encode(p), value);
}

}  // namespace hc::runtime
