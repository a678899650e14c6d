// Write-ahead log record vocabulary (DESIGN.md §15).
//
// A SubnetNode persists three kinds of records into its DurableLog:
//   kBlock      — a committed block (payload) + its commit proof (aux);
//                 appended after every local commit, fsynced lazily.
//   kCheckpoint — a checkpoint this chain cut (payload), keyed by epoch;
//                 restores the submit/sign duty bookkeeping on recovery.
//   kVoteState  — the consensus engine's opaque safety state; last record
//                 wins. ALWAYS fsynced before the vote/production it
//                 covers leaves the node (the write-ahead barrier rule): a
//                 recovered validator must never sign conflicting with a
//                 vote the network may already hold.
//
// The record layer is deliberately dumb: framing integrity is the
// DurableLog's job, replay policy is the node's. wal_recover() stops at
// the first undecodable record (only reachable through medium corruption
// that slipped past the CRC, or a version skew) and reports it as corrupt
// rather than guessing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/codec.hpp"
#include "common/result.hpp"
#include "storage/durable.hpp"

namespace hc::storage {

enum class WalRecordType : std::uint8_t {
  kBlock = 1,
  kCheckpoint = 2,
  kVoteState = 3,
  kFirst = kBlock,
  kLast = kVoteState,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kBlock;
  std::uint64_t height = 0;  ///< block height / checkpoint epoch / 0
  Bytes payload;
  Bytes aux;

  template <class S, class Io>
  static void fields(S& s, Io& io) {
    io.enumeration(s.type).u64(s.height).bytes(s.payload).bytes(s.aux);
  }
};

/// Append one record (buffered; call log.fsync() to draw the barrier).
void wal_append(DurableLog& log, const WalRecord& record);

/// Recover every decodable record up to the first bad frame. `stats`
/// reflects the DurableLog scan plus any record that framed correctly but
/// failed to decode (counted corrupt, scan stops there).
[[nodiscard]] std::vector<WalRecord> wal_recover(
    const DurableLog& log, DurableLog::RecoverStats* stats = nullptr);

}  // namespace hc::storage
