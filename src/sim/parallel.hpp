// Conservative-lookahead parallel executor for the event scheduler.
//
// The paper's subnets are independent consensus instances that interact
// only at narrow cross-net boundaries; this executor exploits exactly that
// independence. It runs each scheduler lane (one per subnet) on a fixed
// worker pool inside time windows no wider than the minimum cross-domain
// network latency (the *lookahead*), so no event executed in a window can
// affect another lane within the same window. Cross-lane sends travel
// through per-lane outboxes merged at the window barrier in deterministic
// (time, id) order, and lane 0 — the driver/chaos lane, whose events
// mutate global state such as fault rules — always runs exclusively with
// every other lane parked. The result is byte-identical output at any
// worker count, verified by the chaos runner's replay fingerprints.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/profile.hpp"
#include "sim/clock.hpp"
#include "sim/scheduler.hpp"

namespace hc::sim {

class ParallelExecutor {
 public:
  /// `threads` >= 1 (1 = run windows inline on the calling thread);
  /// `lookahead` must lower-bound every cross-domain event delay — use
  /// LatencyModel::min_delay() or the minimum cross-subnet link floor.
  ParallelExecutor(Scheduler& sched, std::size_t threads, Duration lookahead);
  ~ParallelExecutor();
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Windowed equivalent of Scheduler::run_until: runs every event with
  /// when <= deadline and advances the clock to exactly `deadline`.
  /// Returns the number of events run.
  std::size_t run_until(Time deadline);

  /// Register a hook run at every window barrier with all lanes parked
  /// (e.g. flipping double-buffered parent-view snapshots).
  void add_barrier_hook(std::function<void()> hook);

  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Diagnostics: windows executed / pool dispatches since construction.
  /// A dispatch is a window handed to the worker pool; windows with zero
  /// or one active lane skip the pool entirely (driver-side pre-scan).
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  [[nodiscard]] std::uint64_t dispatches() const { return dispatches_; }

  /// Diagnostics: wall-clock ns spent executing each lane's events
  /// (index = lane/domain id; [0] = the exclusive driver lane), recorded
  /// only while the Profiler is enabled. Each lane is written by its sticky
  /// owner and read from driver context. Per-lane busy time for perfbench's
  /// traced episodes; values are wall time and therefore NOT part of any
  /// deterministic export.
  [[nodiscard]] const std::vector<std::int64_t>& lane_wall_ns() const {
    return lane_wall_ns_;
  }

 private:
  void worker_loop(std::size_t part);
  void process_lanes(std::size_t part);
  std::size_t run_lane_window(Scheduler::Lane& lane, Time w_end,
                              bool inclusive, std::size_t lane_idx);
  bool drain_exclusive(Time bound, std::size_t& ran);
  std::size_t parallel_pass(Time w_end, bool inclusive);
  void barrier(Time w_end);

  Scheduler& sched_;
  std::size_t threads_;
  Duration lookahead_;
  std::vector<std::function<void()>> hooks_;

  // Worker pool: threads_ - 1 persistent workers plus the calling thread.
  // A window is dispatched by bumping epoch_ under m_. Lane->thread
  // assignment is STICKY: participant `part` always runs lanes with
  // (lane - 1) % threads_ == part, so a subnet's working set (state tree,
  // mempool, heaps) stays in one core's cache across windows instead of
  // migrating every dispatch.
  std::vector<std::thread> workers_;
  std::mutex m_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  /// Bumped (release) to dispatch a window; workers spin briefly on it
  /// before parking on cv_start_, so back-to-back windows avoid the
  /// futex round-trip. The release store orders the window_* fields.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  Time window_end_ = 0;
  bool inclusive_ = false;
  std::size_t lane_count_ = 0;
  std::atomic<std::size_t> done_workers_{0};
  std::atomic<std::size_t> window_ran_{0};

  std::uint64_t windows_ = 0;
  std::uint64_t dispatches_ = 0;
  /// Written once per (window, lane) by the lane's sticky owner; sized on
  /// the driver thread before dispatch.
  std::vector<std::int64_t> lane_wall_ns_;
  /// Interned "scheduler/dispatch" phase (obs profiler; see DESIGN.md §13).
  obs::PhaseId dispatch_phase_;
};

}  // namespace hc::sim
