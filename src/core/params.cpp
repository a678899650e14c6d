#include "core/params.hpp"

namespace hc::core {

std::string_view consensus_name(ConsensusType t) {
  switch (t) {
    case ConsensusType::kPoaRoundRobin: return "poa-round-robin";
    case ConsensusType::kPowerLottery: return "power-lottery";
    case ConsensusType::kTendermint: return "tendermint";
    case ConsensusType::kRoundRobinBft: return "round-robin-bft";
  }
  return "unknown";
}

}  // namespace hc::core
