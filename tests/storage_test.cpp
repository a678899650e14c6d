// Unit tests for the storage module: content-addressable store integrity,
// capacity-bounded eviction, and the simulated durable
// medium (CRC framing, fsync barriers, seeded disk faults, WAL records).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "common/bytes.hpp"
#include "storage/durable.hpp"
#include "storage/store.hpp"
#include "storage/wal.hpp"

namespace hc::storage {
namespace {

TEST(ContentStore, PutGetRoundTrip) {
  ContentStore cas;
  const Bytes content = to_bytes("cross-msg batch");
  const Cid cid = cas.put(CidCodec::kCrossMsgs, content);
  EXPECT_TRUE(cas.has(cid));
  auto back = cas.get(cid);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, content);
}

TEST(ContentStore, PutIsIdempotent) {
  ContentStore cas;
  const Bytes content = to_bytes("same");
  const Cid a = cas.put(CidCodec::kRaw, content);
  const Cid b = cas.put(CidCodec::kRaw, content);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cas.size(), 1u);
  EXPECT_EQ(cas.total_bytes(), content.size());
}

TEST(ContentStore, GetMissingReturnsNullopt) {
  ContentStore cas;
  EXPECT_FALSE(cas.get(Cid::of(CidCodec::kRaw, to_bytes("ghost"))).has_value());
  EXPECT_FALSE(cas.has(Cid::of(CidCodec::kRaw, to_bytes("ghost"))));
}

TEST(ContentStore, PutVerifiedAcceptsMatchingContent) {
  ContentStore cas;
  const Bytes content = to_bytes("resolved messages");
  const Cid cid = Cid::of(CidCodec::kCrossMsgs, content);
  EXPECT_TRUE(cas.put_verified(cid, content).ok());
  EXPECT_TRUE(cas.has(cid));
}

TEST(ContentStore, SharedPutAliasesWithoutCopying) {
  // Zero-copy path: the store keeps the caller's buffer alive instead of
  // copying it, and get_shared() hands back the very same allocation.
  ContentStore cas;
  auto owner = std::make_shared<const Bytes>(to_bytes("one materialization"));
  const Cid cid = Cid::of(CidCodec::kCrossMsgs, *owner);
  EXPECT_TRUE(cas.put_verified(cid, owner).ok());
  auto shared = cas.get_shared(cid);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared.get(), owner.get());  // same buffer, not a copy
  EXPECT_EQ(cas.total_bytes(), owner->size());
  // Copy-returning get() still works against the shared resident.
  auto copy = cas.get(cid);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(*copy, *owner);
  EXPECT_EQ(cas.get_shared(Cid::of(CidCodec::kRaw, to_bytes("ghost"))),
            nullptr);
}

TEST(ContentStore, SharedReadSurvivesEviction) {
  ContentStore cas;
  common::CapacityPolicy policy;
  policy.max_items = 1;
  cas.set_policy(policy);
  const Bytes first = to_bytes("evict-me");
  const Cid cid = cas.put(CidCodec::kRaw, first);
  auto shared = cas.get_shared(cid);
  ASSERT_NE(shared, nullptr);
  (void)cas.put(CidCodec::kRaw, to_bytes("displaces"));  // evicts `first`
  EXPECT_FALSE(cas.has(cid));
  EXPECT_EQ(*shared, first);  // outstanding reader keeps the bytes alive
}

TEST(ContentStore, PutVerifiedRejectsForgedContent) {
  // A malicious peer answering a pull request with bogus bytes must be
  // rejected: content addressing is the integrity backbone of cross-msg
  // resolution (paper §IV-C).
  ContentStore cas;
  const Cid cid = Cid::of(CidCodec::kCrossMsgs, to_bytes("real"));
  auto status = cas.put_verified(cid, to_bytes("forged"));
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.error().code(), Errc::kInvalidArgument);
  EXPECT_FALSE(cas.has(cid));
}

TEST(ContentStore, DistinguishesCodecs) {
  ContentStore cas;
  const Bytes content = to_bytes("payload");
  const Cid raw = cas.put(CidCodec::kRaw, content);
  const Cid chk = cas.put(CidCodec::kCheckpoint, content);
  EXPECT_NE(raw, chk);
  EXPECT_TRUE(cas.has(raw));
  EXPECT_TRUE(cas.has(chk));
}

// --------------------------------------------------- capacity bounding

TEST(ContentStore, ItemCapEvictsOldestDeterministically) {
  ContentStore cas;
  cas.set_policy(common::CapacityPolicy{.max_items = 2});
  const Cid a = cas.put(CidCodec::kRaw, to_bytes("a"));
  const Cid b = cas.put(CidCodec::kRaw, to_bytes("b"));
  const Cid c = cas.put(CidCodec::kRaw, to_bytes("c"));
  EXPECT_EQ(cas.size(), 2u);
  EXPECT_FALSE(cas.has(a));  // oldest evicted
  EXPECT_TRUE(cas.has(b));
  EXPECT_TRUE(cas.has(c));
  EXPECT_EQ(cas.shed_stats().by(common::ShedReason::kEvicted), 1u);
  EXPECT_EQ(cas.shed_stats().peak_items, 2u);
}

TEST(ContentStore, ByteCapEvictsUntilFit) {
  ContentStore cas;
  cas.set_policy(common::CapacityPolicy{.max_bytes = 10});
  cas.put(CidCodec::kRaw, Bytes(4, 0x11));
  cas.put(CidCodec::kRaw, Bytes(4, 0x22));
  EXPECT_EQ(cas.total_bytes(), 8u);
  cas.put(CidCodec::kRaw, Bytes(6, 0x33));  // evicts only the oldest
  EXPECT_EQ(cas.total_bytes(), 10u);
  EXPECT_FALSE(cas.has(Cid::of(CidCodec::kRaw, Bytes(4, 0x11))));
  EXPECT_TRUE(cas.has(Cid::of(CidCodec::kRaw, Bytes(4, 0x22))));
  EXPECT_EQ(cas.shed_stats().by(common::ShedReason::kEvicted), 1u);
  EXPECT_LE(cas.shed_stats().peak_bytes, 10u);
}

TEST(ContentStore, OversizedBlobRefusedNotCached) {
  ContentStore cas;
  cas.set_policy(common::CapacityPolicy{.max_bytes = 4});
  const Bytes huge(16, 0x44);
  const Cid cid = cas.put(CidCodec::kRaw, huge);
  EXPECT_EQ(cid, Cid::of(CidCodec::kRaw, huge));  // CID still computed
  EXPECT_FALSE(cas.has(cid));
  EXPECT_EQ(cas.shed_stats().by(common::ShedReason::kByteCap), 1u);
  // put_verified still verifies integrity, just does not cache.
  EXPECT_TRUE(cas.put_verified(cid, huge).ok());
  EXPECT_FALSE(cas.has(cid));
}

TEST(ContentStore, ShrinkingPolicyTrimsResidents) {
  ContentStore cas;
  for (int i = 0; i < 8; ++i) {
    cas.put(CidCodec::kRaw, to_bytes("blob-" + std::to_string(i)));
  }
  cas.set_policy(common::CapacityPolicy{.max_items = 3});
  EXPECT_EQ(cas.size(), 3u);
  EXPECT_EQ(cas.shed_stats().by(common::ShedReason::kEvicted), 5u);
  EXPECT_TRUE(cas.has(Cid::of(CidCodec::kRaw, to_bytes("blob-7"))));
}

// --------------------------------------------------- durable medium

TEST(DurableLog, Crc32KnownVector) {
  // The canonical IEEE check value: crc32("123456789") = 0xcbf43926.
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(DurableLog, AppendRecoverRoundTrip) {
  DurableLog log;
  log.append(to_bytes("one"));
  log.append(to_bytes(""));
  log.append(to_bytes("three"));
  log.fsync();
  DurableLog::RecoverStats stats;
  const auto records = log.recover(&stats);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], to_bytes("one"));
  EXPECT_EQ(records[1], to_bytes(""));
  EXPECT_EQ(records[2], to_bytes("three"));
  EXPECT_EQ(stats.records, 3u);
  EXPECT_EQ(stats.truncated_bytes, 0u);
  EXPECT_EQ(stats.corrupt_records, 0u);
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_EQ(log.appends(), 3u);
  EXPECT_EQ(log.fsyncs(), 1u);
}

TEST(DurableLog, LoseSuffixCrashDropsUnfsyncedRecords) {
  DurableLog log;
  log.append(to_bytes("durable"));
  log.fsync();
  log.append(to_bytes("in-flight"));
  log.crash(DiskFault{.kind = DiskFault::Kind::kLoseSuffix, .seed = 7});
  DurableLog::RecoverStats stats;
  const auto records = log.recover(&stats);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], to_bytes("durable"));
  EXPECT_EQ(stats.truncated_bytes, 0u);  // clean cut at the frame boundary
}

TEST(DurableLog, TornTailDetectedAndTruncated) {
  DurableLog log;
  log.append(to_bytes("durable"));
  log.fsync();
  log.append(to_bytes("this write tears"));
  log.crash(DiskFault{.kind = DiskFault::Kind::kTornTail, .seed = 3});
  DurableLog::RecoverStats stats;
  const auto records = log.recover(&stats);
  ASSERT_EQ(records.size(), 1u);  // the torn record never surfaces
  EXPECT_EQ(records[0], to_bytes("durable"));
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_GT(stats.truncated_bytes, 0u);
}

TEST(DurableLog, BitFlipDetectedByCrc) {
  DurableLog log;
  for (int i = 0; i < 8; ++i) {
    log.append(to_bytes("record payload number " + std::to_string(i)));
  }
  log.fsync();
  const std::size_t before = log.size_bytes();
  log.crash(DiskFault{.kind = DiskFault::Kind::kBitFlip, .seed = 42});
  EXPECT_EQ(log.size_bytes(), before);  // corruption, not truncation
  DurableLog::RecoverStats stats;
  const auto records = log.recover(&stats);
  // Recovery stops at the flipped frame; everything before it is intact
  // and nothing corrupted is ever returned.
  EXPECT_LT(records.size(), 8u);
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_TRUE(stats.corrupt_records > 0 || stats.torn_tail);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], to_bytes("record payload number " +
                                   std::to_string(i)));
  }
}

TEST(DurableLog, LoseDiskWipesEverything) {
  DurableLog log;
  log.append(to_bytes("gone"));
  log.fsync();
  log.crash(DiskFault{.kind = DiskFault::Kind::kLoseDisk});
  EXPECT_TRUE(log.empty());
  EXPECT_TRUE(log.recover().empty());
}

TEST(DurableLog, CrashIsDeterministicPerSeed) {
  auto build = [] {
    DurableLog log;
    for (int i = 0; i < 5; ++i) {
      log.append(to_bytes("payload-" + std::to_string(i)));
      if (i == 2) log.fsync();
    }
    return log;
  };
  for (const auto kind :
       {DiskFault::Kind::kTornTail, DiskFault::Kind::kBitFlip}) {
    DurableLog a = build();
    DurableLog b = build();
    a.crash(DiskFault{.kind = kind, .seed = 99});
    b.crash(DiskFault{.kind = kind, .seed = 99});
    EXPECT_EQ(a.size_bytes(), b.size_bytes());
    EXPECT_EQ(a.recover(), b.recover());
    DurableLog c = build();
    c.crash(DiskFault{.kind = kind, .seed = 100});
    // A different seed is allowed to (and here does) damage differently
    // or identically; only determinism per seed is required, so no assert.
    (void)c;
  }
}

// Property: for ANY randomized append/fsync schedule and ANY crash fault,
// recovery yields a valid prefix of what was appended — never a torn or
// reordered record — and everything behind the last fsync barrier
// survives every fault except bit-flip corruption and total disk loss.
TEST(DurableLog, PropertyAnyCrashPointRecoversValidPrefix) {
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int trial = 0; trial < 50; ++trial) {
    DurableLog log;
    std::vector<Bytes> appended;
    std::size_t synced = 0;  // records covered by the last fsync
    const int ops = 1 + static_cast<int>(next() % 24);
    for (int op = 0; op < ops; ++op) {
      if (next() % 4 == 0) {
        log.fsync();
        synced = appended.size();
      } else {
        Bytes payload(next() % 40, static_cast<std::uint8_t>(next()));
        log.append(payload);
        appended.push_back(std::move(payload));
      }
    }
    for (const auto kind :
         {DiskFault::Kind::kKeepAll, DiskFault::Kind::kLoseSuffix,
          DiskFault::Kind::kTornTail, DiskFault::Kind::kBitFlip,
          DiskFault::Kind::kLoseDisk}) {
      DurableLog crashed = log;  // crash this copy at the current point
      crashed.crash(DiskFault{.kind = kind, .seed = next()});
      const auto recovered = crashed.recover();
      ASSERT_LE(recovered.size(), appended.size());
      for (std::size_t i = 0; i < recovered.size(); ++i) {
        ASSERT_EQ(recovered[i], appended[i])
            << "fault " << to_string(kind) << " trial " << trial;
      }
      if (kind == DiskFault::Kind::kLoseSuffix ||
          kind == DiskFault::Kind::kTornTail ||
          kind == DiskFault::Kind::kKeepAll) {
        ASSERT_GE(recovered.size(), synced)
            << "fsynced record lost by " << to_string(kind);
      }
    }
  }
}

TEST(DurableStore, CrashAppliesToEveryLogDeterministically) {
  auto build = [] {
    DurableStore disk;
    disk.log("wal").append(to_bytes("wal-record"));
    disk.log("wal").fsync();
    disk.log("wal").append(to_bytes("wal-tail"));
    disk.log("aux").append(to_bytes("aux-record"));
    return disk;
  };
  DurableStore a = build();
  DurableStore b = build();
  a.crash(DiskFault{.kind = DiskFault::Kind::kTornTail, .seed = 5});
  b.crash(DiskFault{.kind = DiskFault::Kind::kTornTail, .seed = 5});
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  // The un-fsynced aux log loses its record; the wal keeps its barrier.
  EXPECT_EQ(a.log("wal").recover().size(), 1u);
  DurableStore c = build();
  c.crash(DiskFault{.kind = DiskFault::Kind::kLoseDisk});
  EXPECT_TRUE(c.empty());
}

// --------------------------------------------------- WAL record layer

TEST(Wal, RecordRoundTrip) {
  DurableLog log;
  WalRecord rec;
  rec.type = WalRecordType::kBlock;
  rec.height = 42;
  rec.payload = to_bytes("block bytes");
  rec.aux = to_bytes("proof bytes");
  wal_append(log, rec);
  WalRecord vote;
  vote.type = WalRecordType::kVoteState;
  vote.payload = to_bytes("engine state");
  wal_append(log, vote);
  log.fsync();

  DurableLog::RecoverStats stats;
  const auto records = wal_recover(log, &stats);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, WalRecordType::kBlock);
  EXPECT_EQ(records[0].height, 42u);
  EXPECT_EQ(records[0].payload, to_bytes("block bytes"));
  EXPECT_EQ(records[0].aux, to_bytes("proof bytes"));
  EXPECT_EQ(records[1].type, WalRecordType::kVoteState);
  EXPECT_EQ(stats.records, 2u);
}

TEST(Wal, UndecodableFrameTreatedAsCorruption) {
  DurableLog log;
  wal_append(log, WalRecord{.type = WalRecordType::kBlock,
                            .height = 1,
                            .payload = to_bytes("good"),
                            .aux = {}});
  log.append(to_bytes("\xff not a wal record"));  // valid frame, bad record
  wal_append(log, WalRecord{.type = WalRecordType::kBlock,
                            .height = 2,
                            .payload = to_bytes("after"),
                            .aux = {}});
  log.fsync();
  DurableLog::RecoverStats stats;
  const auto records = wal_recover(log, &stats);
  ASSERT_EQ(records.size(), 1u);  // replay stays a strict prefix
  EXPECT_EQ(records[0].height, 1u);
  EXPECT_EQ(stats.corrupt_records, 1u);
  EXPECT_GT(stats.truncated_bytes, 0u);
}

}  // namespace
}  // namespace hc::storage
