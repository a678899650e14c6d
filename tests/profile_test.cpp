// Wall-clock profiler: attribution correctness, thread-safe merging, and
// the §13 determinism guarantee (profiling must never change what the
// fingerprinted exports contain).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/profile.hpp"
#include "runtime/hierarchy.hpp"

namespace hc {
namespace {

// Burn at least `us` microseconds of real time inside the current scope.
void busy_wait_us(std::int64_t us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

const obs::PhaseStat* find_phase(const obs::ProfileReport& report,
                                 const std::string& name) {
  for (const auto& p : report.phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

TEST(Profiler, PhaseInternIsIdempotent) {
  obs::Profiler prof;
  const obs::PhaseId a = prof.phase("alpha");
  const obs::PhaseId b = prof.phase("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, prof.phase("alpha"));
  EXPECT_EQ(b, prof.phase("beta"));
  EXPECT_EQ(prof.phase_count(), 2u);
}

TEST(Profiler, NestedScopesSplitSelfAndCumulative) {
  obs::Profiler prof;
  const obs::PhaseId outer = prof.phase("outer");
  const obs::PhaseId inner = prof.phase("inner");
  {
    obs::ProfileScope so(prof, outer);
    busy_wait_us(300);
    {
      obs::ProfileScope si(prof, inner);
      busy_wait_us(300);
    }
  }
  const obs::ProfileReport report = prof.report();
  const auto* po = find_phase(report, "outer");
  const auto* pi = find_phase(report, "inner");
  ASSERT_NE(po, nullptr);
  ASSERT_NE(pi, nullptr);
  EXPECT_EQ(po->count, 1u);
  EXPECT_EQ(pi->count, 1u);
  // Cumulative outer covers inner; self excludes it.
  EXPECT_GE(po->total_ns, pi->total_ns);
  EXPECT_EQ(po->self_ns, po->total_ns - pi->total_ns);
  EXPECT_GE(pi->self_ns, 250 * 1000);
  EXPECT_GE(po->self_ns, 250 * 1000);
  // Tree: one root ("outer") with one child ("inner").
  ASSERT_EQ(report.roots.size(), 1u);
  EXPECT_EQ(report.roots[0].name, "outer");
  ASSERT_EQ(report.roots[0].children.size(), 1u);
  EXPECT_EQ(report.roots[0].children[0].name, "inner");
  // Every nanosecond is attributed exactly once.
  EXPECT_EQ(report.attributed_ns, po->total_ns);
  EXPECT_EQ(report.scopes, 2u);
}

TEST(Profiler, RecursionCollapsesToOutermostInstance) {
  obs::Profiler prof;
  const obs::PhaseId phase = prof.phase("recurse");
  {
    obs::ProfileScope s1(prof, phase);
    busy_wait_us(200);
    {
      obs::ProfileScope s2(prof, phase);
      busy_wait_us(200);
      {
        obs::ProfileScope s3(prof, phase);
        busy_wait_us(200);
      }
    }
  }
  const obs::ProfileReport report = prof.report();
  const auto* p = find_phase(report, "recurse");
  ASSERT_NE(p, nullptr);
  // All three entries counted, but cumulative time is the OUTERMOST
  // instance only — no double counting of nested self time.
  EXPECT_EQ(p->count, 3u);
  ASSERT_EQ(report.roots.size(), 1u);
  EXPECT_EQ(p->total_ns, report.roots[0].total_ns);
  // Self time sums across all three stack positions == total.
  EXPECT_EQ(p->self_ns, p->total_ns);
  EXPECT_EQ(report.attributed_ns, p->total_ns);
}

TEST(Profiler, DeferredScopeRecordsNothingUntilEntered) {
  obs::Profiler prof;
  const obs::PhaseId phase = prof.phase("deferred");
  {
    obs::ProfileScope s;  // never entered
    EXPECT_FALSE(s.active());
    EXPECT_EQ(s.ns_since_enter(), 0);
  }
  EXPECT_TRUE(prof.report().empty());
  {
    obs::ProfileScope s;
    s.enter(prof, phase);
    EXPECT_TRUE(s.active());
    busy_wait_us(100);
    EXPECT_GT(s.ns_since_enter(), 0);
  }
  const obs::ProfileReport report = prof.report();
  const auto* p = find_phase(report, "deferred");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->count, 1u);
}

TEST(Profiler, DisabledScopesAreNoOps) {
  obs::Profiler prof;
  const obs::PhaseId phase = prof.phase("off");
  prof.set_enabled(false);
  { obs::ProfileScope s(prof, phase); busy_wait_us(50); }
  EXPECT_TRUE(prof.report().empty());
  prof.set_enabled(true);
  { obs::ProfileScope s(prof, phase); busy_wait_us(50); }
  EXPECT_FALSE(prof.report().empty());
}

TEST(Profiler, MergesArenasAcrossWorkerThreads) {
  obs::Profiler prof;
  const obs::PhaseId work = prof.phase("lane/work");
  const obs::PhaseId sub = prof.phase("lane/sub");
  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        obs::ProfileScope so(prof, work);
        obs::ProfileScope si(prof, sub);
        busy_wait_us(10);
      }
    });
  }
  for (auto& t : threads) t.join();
  const obs::ProfileReport report = prof.report();
  const auto* pw = find_phase(report, "lane/work");
  const auto* ps = find_phase(report, "lane/sub");
  ASSERT_NE(pw, nullptr);
  ASSERT_NE(ps, nullptr);
  // Counts merge exactly; wall times merge to something positive.
  EXPECT_EQ(pw->count, static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_EQ(ps->count, static_cast<std::uint64_t>(kThreads * kIters));
  EXPECT_GT(ps->self_ns, 0);
  EXPECT_GE(pw->total_ns, ps->total_ns);
  EXPECT_EQ(report.scopes, static_cast<std::uint64_t>(2 * kThreads * kIters));
  // One merged root despite four thread arenas.
  ASSERT_EQ(report.roots.size(), 1u);
  EXPECT_EQ(report.roots[0].name, "lane/work");
}

TEST(Profiler, ResetZeroesAccumulators) {
  obs::Profiler prof;
  const obs::PhaseId phase = prof.phase("transient");
  { obs::ProfileScope s(prof, phase); busy_wait_us(50); }
  EXPECT_FALSE(prof.report().empty());
  prof.reset();
  const obs::ProfileReport after = prof.report();
  EXPECT_EQ(after.attributed_ns, 0);
  EXPECT_EQ(after.scopes, 0u);
  const auto* p = find_phase(after, "transient");
  if (p != nullptr) {
    EXPECT_EQ(p->count, 0u);
    EXPECT_EQ(p->total_ns, 0);
  }
}

TEST(Profiler, ScopeCostIsCheap) {
  // Calibrated enter/exit pair cost powers the overhead estimate; it must
  // be well under 10µs even in sanitizer builds or the <=5% overhead
  // acceptance bound would be meaningless.
  EXPECT_GT(obs::Profiler::scope_cost_ns(), 0);
  EXPECT_LT(obs::Profiler::scope_cost_ns(), 10 * 1000);
}

TEST(ProfileExport, TableFoldedAndJsonAreWellFormed) {
  obs::Profiler prof;
  const obs::PhaseId outer = prof.phase("scheduler/dispatch");
  const obs::PhaseId inner = prof.phase("chain/execute");
  {
    obs::ProfileScope so(prof, outer);
    busy_wait_us(200);
    obs::ProfileScope si(prof, inner);
    busy_wait_us(200);
  }
  const obs::ProfileReport report = prof.report();

  const std::string folded = obs::profile_to_folded(report);
  // Exactly two stacks: the root and the nested path, 'name ns' per line.
  EXPECT_NE(folded.find("scheduler/dispatch "), std::string::npos);
  EXPECT_NE(folded.find("scheduler/dispatch;chain/execute "),
            std::string::npos);
  std::int64_t folded_sum = 0;
  std::size_t lines = 0;
  std::size_t pos = 0;
  while (pos < folded.size()) {
    const std::size_t eol = folded.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    const std::string line = folded.substr(pos, eol - pos);
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    folded_sum += std::stoll(line.substr(space + 1));
    ++lines;
    pos = eol + 1;
  }
  EXPECT_EQ(lines, 2u);
  // Folded self times partition attributed time exactly.
  EXPECT_EQ(folded_sum, report.attributed_ns);

  const std::string json = obs::profile_to_json(report);
  EXPECT_NE(json.find("\"attributed_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\""), std::string::npos);
  EXPECT_NE(json.find("\"tree\""), std::string::npos);
  EXPECT_NE(json.find("\"overhead_ns_est\""), std::string::npos);
  EXPECT_NE(json.find("scheduler/dispatch"), std::string::npos);
}

// §13 acceptance: enabling/disabling the profiler must not change one byte
// of the deterministic exports (it writes only to thread-private arenas,
// never to the registry or tracer).
TEST(ProfileDeterminism, ExportsAreByteIdenticalWithProfilingToggled) {
  auto run = [](bool profiled) {
    obs::Profiler::instance().set_enabled(profiled);
    runtime::HierarchyConfig cfg;
    cfg.seed = 20260809;
    runtime::Hierarchy h(cfg);
    auto user = h.make_user("prof-guard", TokenAmount::whole(100));
    EXPECT_TRUE(user.ok());
    h.run_for(3 * sim::kSecond);
    obs::Profiler::instance().set_enabled(true);
    return obs::metrics_to_json(h.obs().metrics) + "\n" +
           obs::trace_to_chrome_json(h.obs().tracer);
  };
  const std::string with_profiler = run(true);
  const std::string without_profiler = run(false);
  EXPECT_EQ(with_profiler, without_profiler);
}

// perfbench's traced per-layer table reads the executor's diagnostics
// (windows, pool dispatches, per-lane busy wall time); they must count what
// they claim and stay zero while the profiler is off.
TEST(ExecutorDiagnostics, WindowsDispatchesAndLaneWallTime) {
  runtime::TreeSpec spec;
  spec.params.checkpoint_period = 5;
  spec.engine.block_time = 100 * sim::kMillisecond;
  spec.engine.timeout_base = 300 * sim::kMillisecond;
  runtime::TreeSpec root = spec;
  root.params.name = "root";
  for (const char* name : {"a", "b"}) {
    spec.name = name;
    spec.params.name = name;
    root.children.push_back(spec);
  }
  for (const bool profiled : {false, true}) {
    SCOPED_TRACE(profiled ? "profiler enabled" : "profiler disabled");
    obs::Profiler::instance().set_enabled(profiled);
    runtime::HierarchyConfig cfg;
    cfg.seed = 20261018;
    cfg.threads = 2;
    runtime::Hierarchy h(cfg, root);
    h.run_for(2 * sim::kSecond);
    obs::Profiler::instance().set_enabled(true);

    const sim::ParallelExecutor& ex = h.executor();
    EXPECT_GT(ex.dispatches(), 0u);
    EXPECT_GE(ex.windows(), ex.dispatches());
    const std::vector<std::int64_t>& wall = ex.lane_wall_ns();
    ASSERT_EQ(wall.size(), h.scheduler().domain_count());
    ASSERT_EQ(h.subnets().size(), 3u);
    if (!profiled) {
      for (const std::int64_t ns : wall) EXPECT_EQ(ns, 0);
      continue;
    }
    // Every subnet lane produced blocks, so every one of them was busy.
    for (const auto& s : h.subnets()) {
      EXPECT_GT(wall.at(s->domain), 0) << s->id.to_string();
    }
  }
}

}  // namespace
}  // namespace hc
