// Unit tests for the discrete-event simulator: scheduler ordering and
// cancellation, RNG distribution sanity and determinism, latency models.
#include <gtest/gtest.h>

#include <vector>

#include "sim/latency.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace hc::sim {
namespace {

// ---------------------------------------------------------------- scheduler

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(30, [&] { order.push_back(3); });
  s.schedule(10, [&] { order.push_back(1); });
  s.schedule(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Scheduler, SameTimeIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule(5, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, NestedScheduling) {
  Scheduler s;
  std::vector<Time> fire_times;
  s.schedule(10, [&] {
    fire_times.push_back(s.now());
    s.schedule(5, [&] { fire_times.push_back(s.now()); });
  });
  s.run_all();
  EXPECT_EQ(fire_times, (std::vector<Time>{10, 15}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  const EventId id = s.schedule(10, [&] { fired = true; });
  s.cancel(id);
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, MassCancelCompactsHeap) {
  // Regression: cancel used to leave tombstones in the heap until their
  // deadline passed, so schedule/cancel churn (consensus timers) grew the
  // heap without bound. Lazy compaction must keep it proportional to the
  // LIVE event count.
  Scheduler s;
  const EventId keeper = s.schedule(1'000'000, [] {});
  for (int round = 0; round < 100; ++round) {
    std::vector<EventId> ids;
    ids.reserve(1000);
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(s.schedule(500'000 + i, [] {}));
    }
    for (const EventId id : ids) s.cancel(id);
  }
  // 100k cancelled tombstones against 1 live event: compaction must have
  // dropped (almost) all of them well before their deadlines.
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_LE(s.queue_size(), 2u);
  bool fired = false;
  s.schedule(1, [&] { fired = true; });
  s.run_all();
  EXPECT_TRUE(fired);
  (void)keeper;
}

TEST(Scheduler, CancelFiredIdIsNoop) {
  Scheduler s;
  const EventId id = s.schedule(1, [] {});
  s.run_all();
  s.cancel(id);  // must not crash or affect others
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler s;
  int count = 0;
  s.schedule(10, [&] { ++count; });
  s.schedule(20, [&] { ++count; });
  s.schedule(30, [&] { ++count; });
  EXPECT_EQ(s.run_until(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.run_until(100), 1u);
  EXPECT_EQ(count, 3);
}

TEST(Scheduler, RunUntilAdvancesClockWhenIdle) {
  Scheduler s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Scheduler, StepReturnsFalseWhenIdle) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  bool fired = false;
  s.schedule(1, [&] { fired = true; });
  EXPECT_TRUE(s.step());
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CallbackMayCancelLaterEvent) {
  Scheduler s;
  bool later_fired = false;
  const EventId later = s.schedule(100, [&] { later_fired = true; });
  s.schedule(10, [&] { s.cancel(later); });
  s.run_all();
  EXPECT_FALSE(later_fired);
}

TEST(Scheduler, ZeroDelayIsAsynchronous) {
  Scheduler s;
  bool fired = false;
  s.schedule(0, [&] { fired = true; });
  EXPECT_FALSE(fired);  // not run inline
  s.run_all();
  EXPECT_TRUE(fired);
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(7);
  std::vector<int> hits(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++hits[static_cast<std::size_t>(rng.uniform(8))];
  }
  for (int h : hits) {
    EXPECT_GT(h, 800);  // expected 1000 each; very generous bound
    EXPECT_LT(h, 1200);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double r = rng.real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesP) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_GT(hits, 2700);
  EXPECT_LT(hits, 3300);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  const double mean = sum / n;
  EXPECT_GT(mean, 45.0);
  EXPECT_LT(mean, 55.0);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(9);
  Rng b(9);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fa.next(), fb.next());
}

// ---------------------------------------------------------------- latency

TEST(Latency, SampleWithinJitterBounds) {
  LatencyModel m(1000, 200);
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    const Duration d = m.sample(rng);
    EXPECT_GE(d, 800);
    EXPECT_LE(d, 1200);
  }
}

TEST(Latency, NeverZeroOrNegative) {
  LatencyModel m(1, 5);  // jitter bigger than base
  Rng rng(29);
  for (int i = 0; i < 200; ++i) {
    EXPECT_GE(m.sample(rng), 1);
  }
}

TEST(Latency, FormatTime) {
  EXPECT_EQ(format_time(1500000), "1.500s");
  EXPECT_EQ(format_time(0), "0.000s");
}

}  // namespace
}  // namespace hc::sim
