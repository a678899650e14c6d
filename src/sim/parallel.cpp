#include "sim/parallel.hpp"

#include <algorithm>
#include <limits>

namespace hc::sim {
namespace {

constexpr Time kNever = std::numeric_limits<Time>::max();

// Spin budget before a thread parks on its condition variable. Windows are
// microseconds apart in wall time, so the dispatch/done handoff almost
// always completes within the spin and the futex round-trip is skipped.
constexpr int kSpinLimit = 4096;

}  // namespace

ParallelExecutor::ParallelExecutor(Scheduler& sched, std::size_t threads,
                                   Duration lookahead)
    : sched_(sched),
      threads_(std::max<std::size_t>(threads, 1)),
      lookahead_(std::max<Duration>(lookahead, 1)),
      dispatch_phase_(obs::Profiler::instance().phase("scheduler/dispatch")) {
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_.store(true, std::memory_order_release);
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ParallelExecutor::add_barrier_hook(std::function<void()> hook) {
  hooks_.push_back(std::move(hook));
}

std::size_t ParallelExecutor::run_until(Time deadline) {
  std::size_t ran = 0;
  // Window loop: [t, w_end). The conservative bound only requires
  // w_end <= earliest-unprocessed-event + lookahead (a cross-lane send from
  // an event at time e lands at >= e + lookahead), so the window extends a
  // full lookahead past the earliest pending event rather than past the
  // clock — idle stretches collapse into a single window instead of
  // ceil(idle / lookahead) empty ones. Lane-0 events (driver/chaos) mutate
  // global state, so the window also never crosses the next one.
  for (;;) {
    const Time t = sched_.now_;
    if (t >= deadline) break;
    drain_exclusive(t, ran);
    Scheduler::Lane& lane0 = *sched_.lanes_[0];
    Scheduler::skip_cancelled(lane0);
    const Time lane0_next =
        lane0.heap.empty() ? kNever : lane0.heap.front().when;
    Time min_next = kNever;
    for (std::size_t i = 1; i < sched_.lanes_.size(); ++i) {
      Scheduler::Lane& lane = *sched_.lanes_[i];
      Scheduler::skip_cancelled(lane);
      if (!lane.heap.empty()) {
        min_next = std::min(min_next, lane.heap.front().when);
      }
    }
    const Time horizon = min_next > kNever - lookahead_
                             ? kNever
                             : min_next + lookahead_;
    const Time w_end = std::min(std::min(deadline, horizon), lane0_next);
    ++windows_;
    ran += parallel_pass(w_end, /*inclusive=*/false);
    barrier(w_end);
  }
  // Closing pass: run_until semantics include events at exactly
  // `deadline` (windows are half-open, so they remain). Same-lane
  // zero-delay chains drain inside each lane; lane-0 events may insert
  // new work anywhere, hence the fixpoint loop.
  for (;;) {
    const bool drained = drain_exclusive(deadline, ran);
    const std::size_t n = parallel_pass(deadline, /*inclusive=*/true);
    ran += n;
    barrier(deadline);
    if (!drained && n == 0) break;
  }
  return ran;
}

bool ParallelExecutor::drain_exclusive(Time bound, std::size_t& ran) {
  Scheduler::Lane& lane0 = *sched_.lanes_[0];
  // Deferred profiling scope: entered only once work is found, so the
  // (very frequent) empty polls of the window loop are not charged.
  obs::ProfileScope prof;
  bool any = false;
  for (;;) {
    Scheduler::skip_cancelled(lane0);
    if (lane0.heap.empty() || lane0.heap.front().when > bound) break;
    if (!prof.active()) prof.enter(dispatch_phase_);
    sched_.run_top(lane0, /*exclusive=*/true);
    ++ran;
    any = true;
  }
  if (prof.active()) {
    if (lane_wall_ns_.empty()) lane_wall_ns_.resize(1, 0);
    lane_wall_ns_[0] += prof.ns_since_enter();
  }
  return any;
}

std::size_t ParallelExecutor::parallel_pass(Time w_end, bool inclusive) {
  const std::size_t lane_count = sched_.lanes_.size();
  if (lane_wall_ns_.size() < lane_count) lane_wall_ns_.resize(lane_count, 0);
  // Driver-side pre-scan: find the lanes that actually have runnable work.
  // Dispatching the pool for a window where at most one lane runs pays the
  // wake/park round-trip for nothing, and such windows dominate sparse
  // phases (driver polling loops, closing fixpoint confirmation passes).
  // Lanes are sealed within a window — no event can appear in an inactive
  // lane until the barrier merges outboxes — so the scan is exact.
  std::size_t active = 0;
  std::size_t last_active = 0;
  for (std::size_t i = 1; i < lane_count; ++i) {
    Scheduler::Lane& lane = *sched_.lanes_[i];
    Scheduler::skip_cancelled(lane);
    if (lane.heap.empty()) continue;
    const Time when = lane.heap.front().when;
    if (inclusive ? when > w_end : when >= w_end) continue;
    ++active;
    last_active = i;
  }
  if (active == 0) return 0;
  if (workers_.empty() || active == 1) {
    // Inline path: identical semantics, no thread handoff. Lane order is
    // irrelevant for the result (lanes are independent within a window).
    if (active == 1) {
      return run_lane_window(*sched_.lanes_[last_active], w_end, inclusive,
                             last_active);
    }
    std::size_t ran = 0;
    for (std::size_t i = 1; i < lane_count; ++i) {
      ran += run_lane_window(*sched_.lanes_[i], w_end, inclusive, i);
    }
    return ran;
  }
  ++dispatches_;
  {
    std::lock_guard<std::mutex> lk(m_);
    window_end_ = w_end;
    inclusive_ = inclusive;
    lane_count_ = lane_count;
    done_workers_.store(0, std::memory_order_relaxed);
    window_ran_.store(0, std::memory_order_relaxed);
    // Release: publishes the window_* fields to workers that observe the
    // new epoch through the lock-free spin path below.
    epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
  }
  cv_start_.notify_all();
  process_lanes(threads_ - 1);
  // Spin-then-park for worker completion (mirrors the workers' dispatch
  // wait): the calling thread usually finishes its share of lanes last or
  // near-last, so the remaining wait is sub-microsecond.
  int spins = 0;
  while (done_workers_.load(std::memory_order_acquire) != workers_.size()) {
    if (++spins > kSpinLimit) {
      std::unique_lock<std::mutex> lk(m_);
      cv_done_.wait(lk, [&] {
        return done_workers_.load(std::memory_order_acquire) ==
               workers_.size();
      });
      break;
    }
  }
  return window_ran_.load(std::memory_order_relaxed);
}

void ParallelExecutor::worker_loop(std::size_t part) {
  std::uint64_t seen = 0;
  for (;;) {
    // Spin briefly for the next window before parking: dispatches arrive
    // back-to-back while a run is active, and the park/notify round-trip
    // costs more than the window itself for sparse windows.
    std::uint64_t e = seen;
    for (int spins = 0; spins < kSpinLimit; ++spins) {
      if (stop_.load(std::memory_order_acquire)) return;
      e = epoch_.load(std::memory_order_acquire);
      if (e != seen) break;
    }
    if (e == seen) {
      std::unique_lock<std::mutex> lk(m_);
      cv_start_.wait(lk, [&] {
        return stop_.load(std::memory_order_acquire) ||
               epoch_.load(std::memory_order_acquire) != seen;
      });
      if (stop_.load(std::memory_order_acquire)) return;
      e = epoch_.load(std::memory_order_acquire);
    }
    seen = e;
    process_lanes(part);
    if (done_workers_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        workers_.size()) {
      std::lock_guard<std::mutex> lk(m_);
      cv_done_.notify_one();
    }
  }
}

void ParallelExecutor::process_lanes(std::size_t part) {
  // Sticky assignment: participant `part` owns lanes (i - 1) % threads_ ==
  // part. Deterministic by construction, and a lane's node state stays
  // warm in its owner's cache across windows.
  std::size_t ran = 0;
  for (std::size_t i = 1 + part; i < lane_count_; i += threads_) {
    ran += run_lane_window(*sched_.lanes_[i], window_end_, inclusive_, i);
  }
  if (ran > 0) window_ran_.fetch_add(ran, std::memory_order_relaxed);
}

std::size_t ParallelExecutor::run_lane_window(Scheduler::Lane& lane,
                                              Time w_end, bool inclusive,
                                              std::size_t lane_idx) {
  std::size_t ran = 0;
  // Deferred scope: lanes with no runnable event this window cost nothing.
  // Everything an event does nests under scheduler/dispatch in the scope
  // tree, so dispatch self-time is the event-loop machinery plus any
  // uninstrumented event work.
  obs::ProfileScope prof;
  for (;;) {
    Scheduler::skip_cancelled(lane);
    if (lane.heap.empty()) break;
    const Time when = lane.heap.front().when;
    if (inclusive ? when > w_end : when >= w_end) break;
    if (!prof.active()) prof.enter(dispatch_phase_);
    sched_.run_top(lane, /*exclusive=*/false);
    ++ran;
  }
  // Sticky ownership (see process_lanes) makes this write race-free.
  if (prof.active()) lane_wall_ns_[lane_idx] += prof.ns_since_enter();
  return ran;
}

void ParallelExecutor::barrier(Time w_end) {
  for (auto& lp : sched_.lanes_) lp->now = std::max(lp->now, w_end);
  if (sched_.now_ < w_end) sched_.now_ = w_end;
  sched_.merge_outboxes();
  sched_.update_queue_gauge();
  for (auto& hook : hooks_) hook();
}

}  // namespace hc::sim
