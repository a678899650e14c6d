// Subnet Actor (SA) state.
//
// One SA instance exists in the parent chain per spawned subnet; it is the
// user-deployed governance contract (paper §III-A) holding the validator
// set, the consensus choice and the checkpointing policy.
#pragma once

#include <vector>

#include "core/checkpoint.hpp"
#include "core/params.hpp"
#include "crypto/schnorr.hpp"

namespace hc::actors {

struct ValidatorInfo {
  crypto::PublicKey pubkey;
  TokenAmount stake;

  /// The validator's account address (stake refunds go here).
  [[nodiscard]] Address address() const {
    return Address::key(pubkey.to_bytes());
  }

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.pubkey).obj(s.stake);
  }
  bool operator==(const ValidatorInfo&) const = default;
};

struct SaState {
  core::SubnetParams params;
  core::SubnetId subnet_id;  // assigned when registered with the SCA
  bool registered = false;
  bool killed = false;
  std::vector<ValidatorInfo> validators;
  TokenAmount total_stake;
  /// CID of the last checkpoint this SA accepted (prev-linkage check).
  Cid last_checkpoint;
  chain::Epoch last_checkpoint_epoch = -1;

  [[nodiscard]] std::vector<crypto::PublicKey> validator_keys() const {
    std::vector<crypto::PublicKey> keys;
    keys.reserve(validators.size());
    for (const auto& v : validators) keys.push_back(v.pubkey);
    return keys;
  }

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.obj(s.params).obj(s.subnet_id).boolean(s.registered).boolean(s.killed);
    io.vec(s.validators).obj(s.total_stake).obj(s.last_checkpoint);
    io.i64(s.last_checkpoint_epoch);
  }
  bool operator==(const SaState&) const = default;
};

}  // namespace hc::actors
