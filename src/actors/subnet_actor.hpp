// The Subnet Actor (SA): per-subnet governance contract.
//
// Paper §III-A: "To spawn a new subnet, peers need to deploy a new Subnet
// Actor (SA) that implements the core logic for the new subnet. The
// contract specifies the consensus protocol to be run by the subnet and the
// set of policies to be enforced for new members, leaving members,
// checkpointing, killing the subnet, etc."
//
// The SA lives in the PARENT chain. It registers the subnet with the
// parent's SCA once enough stake has accumulated, validates checkpoint
// signature policies before relaying checkpoints to the SCA (§III-B), and
// manages the validator set.
#pragma once

#include "actors/methods.hpp"
#include "actors/sa_state.hpp"
#include "chain/actor.hpp"

namespace hc::actors {

/// Join parameters: the validator's public key; the attached message value
/// is the stake.
struct JoinParams {
  crypto::PublicKey pubkey;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.pubkey);
  }
};

/// Slash parameters (SCA -> SA callback after a valid fraud proof).
struct SlashParams {
  std::vector<crypto::PublicKey> guilty;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.vec(s.guilty);
  }
};

/// Constructor state for deploying an SA through the Init actor.
[[nodiscard]] Bytes make_sa_ctor_state(const core::SubnetParams& params);

class SubnetActor final : public chain::ActorLogic {
 public:
  Result<Bytes> invoke(chain::Runtime& rt, chain::MethodNum method,
                       const Bytes& params) override;

 private:
  Result<Bytes> join(chain::Runtime& rt, SaState state, const Bytes& params);
  Result<Bytes> leave(chain::Runtime& rt, SaState state);
  Result<Bytes> kill(chain::Runtime& rt, SaState state);
  Result<Bytes> submit_checkpoint(chain::Runtime& rt, SaState state,
                                  const Bytes& params);
  Result<Bytes> slash(chain::Runtime& rt, SaState state, const Bytes& params);
};

// SCA -> SA slash callback method id (not user callable).
namespace sa_method {
inline constexpr chain::MethodNum kSlash = 5;
}

}  // namespace hc::actors
