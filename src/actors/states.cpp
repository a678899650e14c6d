// SCA state helpers.
#include "actors/sca_state.hpp"

#include <algorithm>

namespace hc::actors {

bool AtomicExec::all_submitted_and_equal() const {
  if (outputs.size() != parties.size()) return false;
  for (const auto& o : outputs) {
    if (o.is_null()) return false;
  }
  return std::all_of(outputs.begin(), outputs.end(),
                     [&](const Cid& c) { return c == outputs.front(); });
}

const SubnetEntry* ScaState::find_subnet(const Address& sa) const {
  auto it = subnets.find(sa);
  return it == subnets.end() ? nullptr : &it->second;
}

SubnetEntry* ScaState::find_subnet(const Address& sa) {
  auto it = subnets.find(sa);
  return it == subnets.end() ? nullptr : &it->second;
}

SubnetEntry* ScaState::child_toward(const core::SubnetId& dest) {
  if (!self.is_prefix_of(dest) || self == dest) return nullptr;
  const core::SubnetId next = self.down_toward(dest);
  return find_subnet(next.actor());
}

bool ScaState::slashed(const core::SubnetId& subnet, chain::Epoch epoch,
                       const crypto::PublicKey& signer) const {
  return std::any_of(slash_records.begin(), slash_records.end(),
                     [&](const SlashRecord& r) {
                       return r.epoch == epoch && r.signer == signer &&
                              r.subnet == subnet;
                     });
}

}  // namespace hc::actors
