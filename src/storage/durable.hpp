// Deterministic simulated durable medium (DESIGN.md §15).
//
// DurableLog models one append-only file on a crash-prone disk. Writers
// append CRC-framed records and draw explicit fsync barriers; everything
// behind the last barrier is guaranteed to survive a crash, everything
// after it is at the mercy of the configured DiskFault. Faults are seeded
// and purely arithmetic — no wall clock, no OS entropy — so a crash at the
// same simulated instant with the same seed replays byte-identically,
// which keeps the chaos fingerprints stable at any thread count.
//
// Recovery scans the frames front to back, verifies each CRC, and
// truncates at the FIRST bad frame: a torn or corrupted record is never
// surfaced to the caller, only counted. This is the contract the WAL
// layer (wal.hpp) builds its replay-to-last-durable-point guarantee on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace hc::storage {

/// CRC-32 (IEEE 802.3, reflected) over `data`. Exposed for tests.
[[nodiscard]] std::uint32_t crc32(BytesView data);

/// What happens to a disk's contents at crash time. `seed` drives the torn
/// cut point and the bit-flip offset, so the damage is replayable.
struct DiskFault {
  enum class Kind : std::uint8_t {
    /// Lucky crash: the page cache had already reached the medium.
    kKeepAll = 0,
    /// Default power-loss model: every byte after the last fsync barrier
    /// is gone.
    kLoseSuffix,
    /// Lose the un-fsynced suffix except a partial prefix of it — the
    /// classic torn write. Recovery must detect and drop the torn frame.
    kTornTail,
    /// Medium corruption: one seeded bit flips anywhere on the disk,
    /// fsynced region included. Recovery must detect the CRC mismatch.
    kBitFlip,
    /// Total medium loss: the disk comes back empty (recover from
    /// genesis + network catch-up).
    kLoseDisk,
  };
  Kind kind = Kind::kLoseSuffix;
  std::uint64_t seed = 0;
};

[[nodiscard]] const char* to_string(DiskFault::Kind kind);

/// One append-only CRC-framed log file. Frame layout:
///   u32 payload length (BE) | u32 crc32(payload) (BE) | payload bytes
class DurableLog {
 public:
  /// Frame and buffer `payload`. NOT durable until the next fsync().
  void append(BytesView payload);

  /// Durability barrier: everything appended so far survives any crash
  /// except kBitFlip corruption and kLoseDisk.
  void fsync();

  /// Apply a crash-time fault to the medium. After this call the file IS
  /// what recovery will see (durable watermark = file size).
  void crash(const DiskFault& fault);

  struct RecoverStats {
    std::size_t records = 0;          ///< valid frames recovered
    std::size_t truncated_bytes = 0;  ///< bytes dropped from the first bad frame on
    std::size_t corrupt_records = 0;  ///< frames dropped on CRC mismatch
    bool torn_tail = false;           ///< trailing partial frame detected
  };

  /// Scan, CRC-verify and return every valid payload in append order,
  /// stopping (and truncating the accounting) at the first bad frame.
  [[nodiscard]] std::vector<Bytes> recover(RecoverStats* stats = nullptr) const;

  /// Drop every byte past `bytes` (and clamp the fsync watermark). Callers
  /// run this after recover() so subsequent appends extend the valid
  /// prefix instead of landing behind a damaged tail.
  void truncate(std::size_t bytes);

  [[nodiscard]] std::size_t size_bytes() const { return file_.size(); }
  [[nodiscard]] std::uint64_t appends() const { return appends_; }
  [[nodiscard]] std::uint64_t fsyncs() const { return fsyncs_; }
  [[nodiscard]] bool empty() const { return file_.empty(); }

  void wipe();

 private:
  Bytes file_;
  std::size_t durable_ = 0;  // fsync watermark (bytes)
  std::uint64_t appends_ = 0;
  std::uint64_t fsyncs_ = 0;
};

/// A node's simulated disk: named DurableLogs that survive the owning
/// node's crash (the Hierarchy owns the store; nodes only borrow it).
class DurableStore {
 public:
  /// Find-or-create the log named `name`.
  DurableLog& log(const std::string& name);
  [[nodiscard]] const DurableLog* find(const std::string& name) const;

  /// Crash the whole disk: the fault applies to every log, each with a
  /// per-log seed forked from `fault.seed` and the log's name so the
  /// damage stays deterministic regardless of log creation order.
  void crash(const DiskFault& fault);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t total_bytes() const;
  void wipe();

 private:
  std::map<std::string, DurableLog> logs_;  // ordered: deterministic crash walk
};

}  // namespace hc::storage
