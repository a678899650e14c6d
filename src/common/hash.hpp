// SHA-256 (FIPS 180-4), implemented from the specification.
//
// Lives in `common` (rather than `crypto`) because content identifiers —
// the backbone of the whole system — are hash-derived, and every module
// depends on them. Higher-level primitives (HMAC, signatures, Merkle trees)
// live in `crypto`.
//
// The block compression runs on the x86 SHA extensions (SHA-NI) when the
// CPU has them and on portable C++ otherwise; the choice is made once per
// process from CPUID (DESIGN.md §16). Both kernels produce identical
// digests.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace hc {

/// A 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  /// A compression kernel: folds `blocks` consecutive 64-byte blocks into
  /// the eight-word chaining state.
  using Kernel = void (*)(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks);

  /// Hashes with the kernel dispatched for this CPU.
  Sha256();
  /// Hashes with a specific kernel. Test and bench entry point: production
  /// code uses the default constructor.
  explicit Sha256(Kernel kernel);

  /// Absorb more input.
  Sha256& update(BytesView data);

  /// Finalize and return the digest. The hasher must not be reused after.
  [[nodiscard]] Digest finalize();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(BytesView data);

  /// One-shot over the concatenation of several views.
  [[nodiscard]] static Digest hash_all(std::initializer_list<BytesView> parts);

  /// The portable kernel (any CPU).
  [[nodiscard]] static Kernel portable_kernel();
  /// The SHA-NI kernel, or nullptr when this CPU lacks SHA-NI or SSE4.1.
  [[nodiscard]] static Kernel shani_kernel();
  /// The kernel the default constructor uses: SHA-NI when available.
  [[nodiscard]] static Kernel dispatched_kernel();

 private:
  Kernel kernel_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_len_ = 0;   // bytes absorbed
  std::size_t buffer_len_ = 0;    // bytes pending in buffer_
};

/// View of a digest as bytes.
[[nodiscard]] inline BytesView digest_view(const Digest& d) {
  return BytesView(d.data(), d.size());
}

}  // namespace hc
