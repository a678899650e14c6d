// Subnet configuration vocabulary shared by the SA/SCA actors and the node
// runtime.
#pragma once

#include <cstdint>
#include <string>

#include "common/codec.hpp"
#include "common/token.hpp"
#include "core/policy.hpp"

namespace hc::core {

/// Consensus protocols a subnet can run (paper §II: "Each subnet can run
/// its own independent consensus algorithm"; §VI names Tendermint and
/// MirBFT as integration targets).
enum class ConsensusType : std::uint8_t {
  kPoaRoundRobin = 0,  // permissioned rotation, instant finality
  kPowerLottery = 1,   // Filecoin EC-style weighted leader lottery
  kTendermint = 2,     // 3-phase BFT
  kRoundRobinBft = 3,  // MirBFT stand-in: rotating-leader BFT batching
  kLast = kRoundRobinBft,
};

[[nodiscard]] std::string_view consensus_name(ConsensusType t);

/// Lifecycle status tracked by the parent SCA (paper §III-B/§III-C).
enum class SubnetStatus : std::uint8_t {
  kActive = 0,
  kInactive = 1,  // collateral below minimum; cross-net interaction frozen
  kKilled = 2,
  kLast = kKilled,
};

/// Parameters fixed at SA deployment (paper §III-A: "The contract specifies
/// the consensus protocol to be run by the subnet and the set of policies
/// to be enforced for new members, leaving members, checkpointing, killing
/// the subnet, etc.").
struct SubnetParams {
  std::string name;
  ConsensusType consensus = ConsensusType::kPoaRoundRobin;
  TokenAmount min_validator_stake = TokenAmount::whole(1);
  TokenAmount min_collateral = TokenAmount::whole(1);  // minCollateral_subnet
  std::uint32_t checkpoint_period = 10;  // in subnet epochs
  SignaturePolicy checkpoint_policy;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.str(s.name).enumeration(s.consensus);
    io.obj(s.min_validator_stake).obj(s.min_collateral);
    io.u32(s.checkpoint_period).obj(s.checkpoint_policy);
  }
  bool operator==(const SubnetParams&) const = default;
};

}  // namespace hc::core
