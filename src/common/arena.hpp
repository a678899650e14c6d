// Bump-pointer arena for hot-path transients.
//
// The execute/commit path creates many short-lived buffers whose lifetime is
// bounded by a block (or a mempool admission attempt): canonical re-encodes
// for signature checks, receipt scratch, key material. An Arena services
// those from contiguous chunks with a pointer bump and releases them all at
// one deterministic reset point (end of verify_block / admission), so the
// general-purpose heap sees one amortized allocation per chunk instead of
// one per transient.
//
// Arenas are strictly single-threaded: each owner (an Executor, a Mempool)
// keeps its own, and owners only run from their subnet's scheduler lane.
// Stats are plain local counters the owner flushes to obs at deterministic
// points — common/ cannot depend on obs/ (obs depends on common).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"

namespace hc {

class Arena {
 public:
  /// `chunk_size` is the granularity of heap requests; oversized single
  /// allocations get a dedicated chunk of exactly their size.
  explicit Arena(std::size_t chunk_size = 64 * 1024)
      : chunk_size_(chunk_size) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `n` bytes (8-byte aligned). Valid until
  /// reset().
  [[nodiscard]] std::uint8_t* allocate(std::size_t n) {
    const std::size_t need = (n + 7) & ~std::size_t{7};
    stats_.bytes_requested += n;
    if (used_ + need > cap_) grow(need);
    std::uint8_t* p = cur_ + used_;
    used_ += need;
    live_ += need;
    if (live_ > stats_.high_water) stats_.high_water = live_;
    return p;
  }

  /// Copy a byte view into the arena; the returned view aliases arena
  /// storage and dies at reset().
  [[nodiscard]] BytesView copy(BytesView src) {
    std::uint8_t* p = allocate(src.size());
    if (!src.empty()) std::memcpy(p, src.data(), src.size());
    return {p, src.size()};
  }

  /// Canonically encode `v` into arena storage: a counting pass sizes the
  /// buffer, then an external-mode Encoder fills it. No heap traffic, no
  /// realloc — the hot-path replacement for `encode<T>()` when the bytes
  /// only need to live until the next reset (e.g. signature payloads).
  template <typename T>
  [[nodiscard]] BytesView encode_obj(const T& v) {
    const std::size_t n = encoded_size(v);
    std::uint8_t* p = allocate(n);
    Encoder e(p, n);
    e.obj(v);
    return {p, n};
  }

  /// Invalidate every outstanding allocation. Chunks are retained (the
  /// steady state allocates nothing), except oversized one-off chunks which
  /// are returned to the heap.
  void reset() {
    for (auto it = chunks_.begin(); it != chunks_.end();) {
      if (it->size > chunk_size_) {
        it = chunks_.erase(it);
      } else {
        ++it;
      }
    }
    cur_ = chunks_.empty() ? nullptr : chunks_.front().data.get();
    cap_ = chunks_.empty() ? 0 : chunks_.front().size;
    chunk_idx_ = 0;
    used_ = 0;
    live_ = 0;
  }

  struct Stats {
    std::uint64_t bytes_requested = 0;  // cumulative allocate() demand
    std::uint64_t high_water = 0;       // max live bytes between resets
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Consume the cumulative demand counter (owner flushes the delta into an
  /// obs counter at a deterministic point).
  [[nodiscard]] std::uint64_t take_bytes_requested() {
    const std::uint64_t v = stats_.bytes_requested;
    stats_.bytes_requested = 0;
    return v;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size;
  };

  void grow(std::size_t need) {
    // Reuse a retained chunk if the next one fits, else allocate.
    while (chunk_idx_ + 1 < chunks_.size()) {
      ++chunk_idx_;
      if (chunks_[chunk_idx_].size >= need) {
        cur_ = chunks_[chunk_idx_].data.get();
        cap_ = chunks_[chunk_idx_].size;
        used_ = 0;
        return;
      }
    }
    const std::size_t size = need > chunk_size_ ? need : chunk_size_;
    chunks_.push_back(Chunk{std::make_unique<std::uint8_t[]>(size), size});
    chunk_idx_ = chunks_.size() - 1;
    cur_ = chunks_.back().data.get();
    cap_ = size;
    used_ = 0;
  }

  std::size_t chunk_size_;
  std::vector<Chunk> chunks_;
  std::size_t chunk_idx_ = 0;
  std::uint8_t* cur_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t used_ = 0;   // offset into current chunk
  std::size_t live_ = 0;   // total live bytes since last reset
  Stats stats_;
};

}  // namespace hc
