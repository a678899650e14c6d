#include "chain/executor.hpp"

#include <cassert>

#include "common/hash.hpp"
#include "crypto/sigcache.hpp"
#include "obs/profile.hpp"

namespace hc::chain {

void ActorRegistry::install(CodeId code, std::unique_ptr<ActorLogic> logic) {
  logics_[code] = std::move(logic);
}

ActorLogic* ActorRegistry::find(CodeId code) const {
  auto it = logics_.find(code);
  return it == logics_.end() ? nullptr : it->second.get();
}

namespace {

constexpr std::uint64_t kFirstDynamicActorId = 100;
constexpr int kMaxCallDepth = 32;

/// Runtime implementation backing one message invocation (and, recursively,
/// its internal sends).
class ExecRuntime final : public Runtime {
 public:
  ExecRuntime(const Executor& exec, StateTree& tree,
              const ExecutionContext& ctx, GasMeter& meter, Address self,
              Address caller, Address origin, TokenAmount value,
              std::vector<ActorEvent>& events, int depth)
      : exec_(exec),
        tree_(tree),
        ctx_(ctx),
        meter_(meter),
        self_(self),
        caller_(caller),
        origin_(origin),
        value_(value),
        events_(events),
        depth_(depth) {}

  [[nodiscard]] Address self() const override { return self_; }
  [[nodiscard]] Address caller() const override { return caller_; }
  [[nodiscard]] Address origin() const override { return origin_; }
  [[nodiscard]] TokenAmount value_received() const override { return value_; }
  [[nodiscard]] Epoch current_epoch() const override { return ctx_.height; }

  [[nodiscard]] Result<StateBlob> get_state() override {
    HC_TRY_STATUS(meter_.charge(meter_.schedule().storage_read));
    const ActorEntry* entry = tree_.get(self_);
    if (entry == nullptr) {
      return Error(Errc::kNotFound, "actor has no state entry");
    }
    return entry->state;
  }

  [[nodiscard]] Status set_state(StateBlob state) override {
    HC_TRY_STATUS(meter_.charge(meter_.schedule().storage_write_base +
                                meter_.schedule().storage_per_byte *
                                    static_cast<Gas>(state.size())));
    tree_.get_or_create(self_).state = std::move(state);
    return ok_status();
  }

  [[nodiscard]] TokenAmount balance() const override {
    const ActorEntry* entry = tree_.get(self_);
    return entry == nullptr ? TokenAmount() : entry->balance;
  }

  [[nodiscard]] Result<Bytes> send(const Address& to, MethodNum method,
                                   Bytes params, TokenAmount value) override {
    HC_TRY_STATUS(meter_.charge(meter_.schedule().internal_send));
    if (depth_ >= kMaxCallDepth) {
      return Error(Errc::kExhausted, "actor call depth exceeded");
    }
    // Nested sends roll back independently on failure: replay the undo
    // journal instead of deep-copying the whole tree (DESIGN.md §12).
    const StateTree::JournalMark mark = tree_.journal_mark();
    Message msg;
    msg.from = self_;
    msg.to = to;
    msg.value = value;
    msg.method = method;
    msg.params = std::move(params);
    auto result = exec_.invoke_inner(tree_, msg, ctx_, meter_, origin_,
                                     events_, depth_ + 1);
    if (!result) {
      tree_.journal_revert(mark);
      return result;
    }
    return result;
  }

  [[nodiscard]] Result<Address> create_actor(CodeId code,
                                             Bytes state) override {
    if (self_ != kInitAddr) {
      return Error(Errc::kPermissionDenied,
                   "only the Init actor may create actors");
    }
    HC_TRY_STATUS(meter_.charge(meter_.schedule().actor_creation));
    // The id counter lives in the Init actor's entry nonce field, making it
    // part of consensus state.
    ActorEntry& init = tree_.get_or_create(kInitAddr);
    if (init.nonce < kFirstDynamicActorId) init.nonce = kFirstDynamicActorId;
    const Address addr = Address::id(init.nonce++);
    ActorEntry entry;
    entry.code = code;
    entry.state = std::move(state);
    tree_.set(addr, entry);
    return addr;
  }

  void emit_event(std::string kind, Bytes payload) override {
    events_.push_back(ActorEvent{std::move(kind), std::move(payload)});
  }

  [[nodiscard]] Status charge_gas(Gas amount) override {
    return meter_.charge(amount);
  }

  [[nodiscard]] Digest randomness(std::string_view tag) override {
    Encoder e;
    e.i64(ctx_.height).obj(self_).str(std::string(tag));
    return Sha256::hash(e.data());
  }

 private:
  const Executor& exec_;
  StateTree& tree_;
  const ExecutionContext& ctx_;
  GasMeter& meter_;
  Address self_;
  Address caller_;
  Address origin_;
  TokenAmount value_;
  std::vector<ActorEvent>& events_;
  int depth_;
};

}  // namespace

// Out-of-line so ExecRuntime (in the anonymous namespace) can call back in.
Result<Bytes> Executor::invoke_inner(StateTree& tree, const Message& msg,
                                     const ExecutionContext& ctx,
                                     GasMeter& meter, const Address& origin,
                                     std::vector<ActorEvent>& events,
                                     int depth) const {
  // Value transfer. Minting: only the system address sends unbacked value.
  if (!msg.value.is_zero()) {
    HC_TRY_STATUS(meter.charge(schedule_.transfer));
    if (msg.value.negative()) {
      return Error(Errc::kInvalidArgument, "negative value transfer");
    }
    if (msg.from != kSystemAddr) {
      ActorEntry& sender = tree.get_or_create(msg.from);
      if (sender.balance < msg.value) {
        return Error(Errc::kInsufficientFunds,
                     "balance " + sender.balance.to_string() + " < value " +
                         msg.value.to_string());
      }
      sender.balance -= msg.value;
    }
    tree.get_or_create(msg.to).balance += msg.value;
  }

  ActorEntry& receiver = tree.get_or_create(msg.to);
  if (receiver.code == kCodeNone) {
    // Auto-create plain accounts on first touch (bare transfers only).
    receiver.code = kCodeAccount;
  }

  if (msg.method == 0) return Bytes{};  // bare transfer, no dispatch

  HC_TRY_STATUS(meter.charge(schedule_.method_invocation));
  ActorLogic* logic = registry_.find(receiver.code);
  if (logic == nullptr) {
    return Error(Errc::kInvalidArgument,
                 "no actor logic for code " + std::to_string(receiver.code));
  }
  ExecRuntime rt(*this, tree, ctx, meter, msg.to, msg.from, origin,
                 msg.value, events, depth);
  return logic->invoke(rt, msg.method, msg.params);
}

Receipt Executor::invoke_message(StateTree& tree, const Message& msg,
                                 const ExecutionContext& ctx, GasMeter& meter,
                                 bool implicit) const {
  Receipt receipt;
  const StateTree::JournalMark mark = tree.journal_mark();
  auto result = invoke_inner(tree, msg, ctx, meter, msg.from, receipt.events,
                             /*depth=*/0);
  receipt.gas_used = meter.used();
  if (!result) {
    tree.journal_revert(mark);
    receipt.events.clear();
    receipt.error = result.error().to_string();
    switch (result.error().code()) {
      case Errc::kExhausted:
        receipt.exit = ExitCode::kSysOutOfGas;
        break;
      case Errc::kInsufficientFunds:
        receipt.exit = ExitCode::kSysInsufficientFunds;
        break;
      default:
        receipt.exit = ExitCode::kActorError;
        break;
    }
    return receipt;
  }
  (void)implicit;
  receipt.exit = ExitCode::kOk;
  receipt.ret = std::move(result).value();
  return receipt;
}

Receipt Executor::apply(StateTree& tree, const SignedMessage& sm,
                        const ExecutionContext& ctx) const {
  return apply(tree, sm, ctx, sm.verify());
}

Receipt Executor::apply(StateTree& tree, const SignedMessage& sm,
                        const ExecutionContext& ctx, bool sig_valid) const {
  const Message& msg = sm.message;
  Receipt receipt;

  // Outermost commit boundary: nothing before this message can revert, so
  // undo entries from the previous message are dead weight.
  tree.journal_reset();

  GasMeter meter(msg.gas_limit, schedule_);
  if (!meter
           .charge(schedule_.message_base + schedule_.signature_check +
                   schedule_.per_param_byte *
                       static_cast<Gas>(msg.params.size()))
           .ok()) {
    receipt.exit = ExitCode::kSysOutOfGas;
    receipt.error = "gas limit below intrinsic cost";
    return receipt;
  }

  if (!sig_valid) {
    receipt.exit = ExitCode::kSysInvalidSignature;
    receipt.error = "envelope signature invalid";
    return receipt;
  }

  const ActorEntry* sender = tree.get(msg.from);
  if (sender == nullptr) {
    receipt.exit = ExitCode::kSysInsufficientFunds;
    receipt.error = "sender does not exist";
    return receipt;
  }
  if (msg.nonce != sender->nonce) {
    receipt.exit = ExitCode::kSysInvalidNonce;
    receipt.error = "expected nonce " + std::to_string(sender->nonce) +
                    ", got " + std::to_string(msg.nonce);
    return receipt;
  }
  const TokenAmount max_fee = msg.gas_price * msg.gas_limit;
  if (sender->balance < max_fee) {
    receipt.exit = ExitCode::kSysInsufficientFunds;
    receipt.error = "cannot cover gas fee";
    return receipt;
  }

  // Commit point: nonce advances and the fee escrow is taken even if the
  // message later fails.
  {
    ActorEntry& s = tree.get_or_create(msg.from);
    s.nonce += 1;
    s.balance -= max_fee;
  }

  receipt = invoke_message(tree, msg, ctx, meter, /*implicit=*/false);

  // Refund unused gas; pay the miner (fee flows are how subnet miners earn,
  // paper §II).
  const TokenAmount fee = msg.gas_price * receipt.gas_used;
  const TokenAmount refund = max_fee - fee;
  tree.get_or_create(msg.from).balance += refund;
  tree.get_or_create(ctx.miner.valid() ? ctx.miner : kRewardAddr).balance +=
      fee;
  return receipt;
}

Receipt Executor::apply_implicit(StateTree& tree, const Message& msg,
                                 const ExecutionContext& ctx) const {
  // Implicit messages execute with a large fixed budget; their cost is
  // accounted (receipt.gas_used) but not charged to anyone.
  tree.journal_reset();  // outermost commit boundary, as in apply()
  GasMeter meter(/*limit=*/static_cast<Gas>(1) << 32, schedule_);
  (void)meter.charge(schedule_.message_base +
                     schedule_.per_param_byte *
                         static_cast<Gas>(msg.params.size()));
  return invoke_message(tree, msg, ctx, meter, /*implicit=*/true);
}

std::vector<char> Executor::verify_block(const Block& block) const {
  std::vector<char> sig_ok;
  sig_ok.reserve(block.messages.size());
  for (const auto& sm : block.messages) {
    const Bytes payload = encode(sm.message);
    payload_bytes_ += payload.size();
    const bool ok = crypto::verify_cached(sm.pubkey, payload, sm.signature) &&
                    sm.sender_matches_key();
    sig_ok.push_back(ok ? 1 : 0);
  }
  return sig_ok;
}

std::vector<Receipt> Executor::apply_block(StateTree& tree,
                                           const Block& block) const {
  return apply_block(tree, block, verify_block(block));
}

std::vector<Receipt> Executor::apply_block(
    StateTree& tree, const Block& block,
    const std::vector<char>& sig_ok) const {
  static const obs::PhaseId execute_phase =
      obs::Profiler::instance().phase("chain/execute");
  obs::ProfileScope prof(execute_phase);
  assert(sig_ok.size() == block.messages.size());
  ExecutionContext ctx;
  ctx.height = block.header.height;
  ctx.miner = block.header.miner;
  ctx.timestamp = block.header.timestamp;

  std::vector<Receipt> receipts;
  receipts.reserve(block.cross_messages.size() + block.messages.size());
  for (const auto& cm : block.cross_messages) {
    receipts.push_back(apply_implicit(tree, cm, ctx));
  }
  for (std::size_t i = 0; i < block.messages.size(); ++i) {
    receipts.push_back(apply(tree, block.messages[i], ctx, sig_ok[i] != 0));
  }
  return receipts;
}

}  // namespace hc::chain
