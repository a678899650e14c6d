#include "core/subnet_id.hpp"

#include <cassert>

namespace hc::core {

bool SubnetId::is_prefix_of(const SubnetId& other) const {
  const auto& interner = SubnetInterner::instance();
  const std::uint32_t my_depth = interner.entry(ref_).depth;
  SubnetRef r = other.ref_;
  std::uint32_t d = interner.entry(r).depth;
  if (my_depth > d) return false;
  while (d > my_depth) {
    r = interner.entry(r).parent;
    --d;
  }
  return r == ref_;
}

SubnetId SubnetId::common_ancestor(const SubnetId& a, const SubnetId& b) {
  const auto& interner = SubnetInterner::instance();
  SubnetRef ra = a.ref_;
  SubnetRef rb = b.ref_;
  std::uint32_t da = interner.entry(ra).depth;
  std::uint32_t db = interner.entry(rb).depth;
  while (da > db) {
    ra = interner.entry(ra).parent;
    --da;
  }
  while (db > da) {
    rb = interner.entry(rb).parent;
    --db;
  }
  while (ra != rb) {
    ra = interner.entry(ra).parent;
    rb = interner.entry(rb).parent;
  }
  return SubnetId(ra);
}

SubnetId SubnetId::down_toward(const SubnetId& dest) const {
  assert(is_prefix_of(dest) && *this != dest &&
         "down_toward requires a strict descendant");
  const auto& interner = SubnetInterner::instance();
  const std::uint32_t my_depth = interner.entry(ref_).depth;
  SubnetRef r = dest.ref_;
  while (interner.entry(r).depth > my_depth + 1) {
    r = interner.entry(r).parent;
  }
  return SubnetId(r);
}

std::strong_ordering operator<=>(const SubnetId& a, const SubnetId& b) {
  if (a.ref_ == b.ref_) return std::strong_ordering::equal;
  return a.path() <=> b.path();
}

void SubnetId::encode_to(Encoder& e) const { e.vec(entry_().path); }

Result<SubnetId> SubnetId::decode_from(Decoder& d) {
  HC_TRY(count, d.varint());
  if (count > 64) return Error(Errc::kDecodeError, "subnet path too deep");
  auto& interner = SubnetInterner::instance();
  SubnetRef r = kRootRef;
  for (std::uint64_t i = 0; i < count; ++i) {
    HC_TRY(addr, d.obj<Address>());
    if (!addr.valid()) {
      return Error(Errc::kDecodeError, "invalid address in subnet path");
    }
    r = interner.child_of(r, addr);
  }
  return SubnetId(r);
}

}  // namespace hc::core
