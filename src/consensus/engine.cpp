#include "consensus/engine.hpp"

#include "consensus/bft.hpp"
#include "consensus/lottery.hpp"
#include "consensus/poa.hpp"

namespace hc::consensus {

std::uint64_t ValidatorSet::total_power() const {
  std::uint64_t total = 0;
  for (const auto& m : members_) total += m.power;
  return total;
}

EngineMetrics::EngineMetrics(const EngineContext& ctx,
                             std::string_view engine) {
  auto& metrics = obs::obs_or_default(ctx.obs).metrics;
  const obs::Labels labels{{"engine", std::string(engine)},
                           {"subnet", ctx.scope}};
  rounds_ = &metrics.counter("consensus_rounds_total", labels);
  view_changes_ = &metrics.counter("consensus_view_changes_total", labels);
  timeouts_ = &metrics.counter("consensus_timeouts_total", labels);
  catchups_ = &metrics.counter("consensus_catchup_requests_total", labels);
  step_phase_ = obs::Profiler::instance().phase("consensus/" +
                                                std::string(engine) + "/step");
}

std::optional<std::size_t> ValidatorSet::index_of(
    const crypto::PublicKey& key) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].key == key) return i;
  }
  return std::nullopt;
}

std::unique_ptr<Engine> make_engine(core::ConsensusType type,
                                    EngineContext context,
                                    EngineConfig config) {
  switch (type) {
    case core::ConsensusType::kPoaRoundRobin:
      return std::make_unique<PoaRoundRobin>(std::move(context), config);
    case core::ConsensusType::kPowerLottery:
      return std::make_unique<PowerLottery>(std::move(context), config);
    case core::ConsensusType::kTendermint:
      return std::make_unique<BftEngine>(kTendermintPolicy, std::move(context),
                                         config);
    case core::ConsensusType::kRoundRobinBft:
      return std::make_unique<BftEngine>(kRrBftPolicy, std::move(context),
                                         config);
  }
  return nullptr;
}

}  // namespace hc::consensus
