#include "sim/scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "obs/profile.hpp"

namespace hc::sim {

thread_local Scheduler::LaneCtx Scheduler::t_lane_ctx_;
thread_local Scheduler::ScopeCtx Scheduler::t_scope_ctx_;

Scheduler::Scheduler() {
  add_domain();  // domain 0: the driver/global lane
}

Scheduler::~Scheduler() = default;

Time Scheduler::now() const {
  const LaneCtx& ctx = t_lane_ctx_;
  if (ctx.sched == this && ctx.lane != nullptr) return ctx.lane->now;
  return now_;
}

DomainId Scheduler::add_domain() {
  const auto domain = static_cast<DomainId>(lanes_.size());
  assert(domain < (DomainId{1} << (64 - kSeqBits)) && "domain space full");
  auto lane = std::make_unique<Lane>();
  lane->domain = domain;
  lane->now = now_;
  lanes_.push_back(std::move(lane));
  return domain;
}

DomainId Scheduler::current_domain() const {
  const LaneCtx& ctx = t_lane_ctx_;
  if (ctx.sched == this && ctx.lane != nullptr) return ctx.domain;
  if (t_scope_ctx_.sched == this) return t_scope_ctx_.domain;
  return kGlobalDomain;
}

EventId Scheduler::schedule(Duration delay, Callback fn) {
  assert(delay >= 0 && "cannot schedule in the past");
  return insert(current_domain(), now() + delay, std::move(fn));
}

EventId Scheduler::schedule_in(DomainId domain, Duration delay, Callback fn) {
  assert(delay >= 0 && "cannot schedule in the past");
  return insert(domain, now() + delay, std::move(fn));
}

EventId Scheduler::insert(DomainId domain, Time when, Callback fn) {
  assert(domain < lanes_.size() && "unknown domain");
  LaneCtx& ctx = t_lane_ctx_;
  const bool in_lane = ctx.sched == this && ctx.lane != nullptr;
  if (in_lane && !ctx.exclusive && ctx.domain != domain) {
    // Cross-lane send from inside a parallel window: defer through the
    // source lane's outbox; the barrier merges it into the destination
    // heap single-threaded. The id comes from the source lane's counter
    // (deterministic — only this thread runs this lane).
    Lane& src = *ctx.lane;
    const EventId id = make_id(ctx.domain, src.next_seq++);
    src.outbox.push_back(Outgoing{domain, when, id, std::move(fn)});
    return id;
  }
  Lane& dest = *lanes_[domain];
  const EventId id = make_id(domain, dest.next_seq++);
  dest.heap.push_back(Event{when, id});
  std::push_heap(dest.heap.begin(), dest.heap.end(), std::greater<>{});
  dest.callbacks.emplace(id, std::move(fn));
  update_queue_gauge();
  return id;
}

void Scheduler::cancel(EventId id) {
  const auto domain = static_cast<DomainId>(id >> kSeqBits);
  if (domain >= lanes_.size()) return;
  const LaneCtx& ctx = t_lane_ctx_;
  const bool in_lane = ctx.sched == this && ctx.lane != nullptr;
  // Cross-lane cancel from a worker would race the owning lane; it is a
  // deliberate no-op (only same-lane engine timers are ever cancelled).
  if (in_lane && !ctx.exclusive && ctx.domain != domain) return;
  Lane& lane = *lanes_[domain];
  if (lane.callbacks.erase(id) == 0) return;
  ++lane.cancelled;
  maybe_compact(lane);
  update_queue_gauge();
}

void Scheduler::skip_cancelled(Lane& lane) {
  while (!lane.heap.empty() &&
         lane.callbacks.find(lane.heap.front().id) == lane.callbacks.end()) {
    std::pop_heap(lane.heap.begin(), lane.heap.end(), std::greater<>{});
    lane.heap.pop_back();
    if (lane.cancelled > 0) --lane.cancelled;
  }
}

void Scheduler::maybe_compact(Lane& lane) {
  // Lazy compaction: drop cancelled residue once it outweighs the live
  // entries, so mass-cancellation cannot bloat the heap unboundedly while
  // the amortized cost per cancel stays O(log n).
  if (lane.cancelled * 2 <= lane.heap.size()) return;
  std::erase_if(lane.heap, [&lane](const Event& ev) {
    return lane.callbacks.find(ev.id) == lane.callbacks.end();
  });
  std::make_heap(lane.heap.begin(), lane.heap.end(), std::greater<>{});
  lane.cancelled = 0;
}

void Scheduler::run_top(Lane& lane, bool exclusive) {
  const Event ev = lane.heap.front();
  std::pop_heap(lane.heap.begin(), lane.heap.end(), std::greater<>{});
  lane.heap.pop_back();
  auto it = lane.callbacks.find(ev.id);
  assert(it != lane.callbacks.end() && "skip_cancelled must run first");
  Callback fn = std::move(it->second);
  lane.callbacks.erase(it);
  assert(ev.when >= lane.now);
  lane.now = ev.when;
  if (exclusive && ev.when > now_) now_ = ev.when;
  const LaneCtx saved = t_lane_ctx_;
  t_lane_ctx_ = LaneCtx{this, &lane, lane.domain, exclusive};
  events_run_.fetch_add(1, std::memory_order_relaxed);
  if (events_run_counter_ != nullptr) events_run_counter_->inc();
  update_queue_gauge();
  fn();
  t_lane_ctx_ = saved;
}

Scheduler::Lane* Scheduler::find_next_lane() {
  Lane* best = nullptr;
  for (auto& lp : lanes_) {
    skip_cancelled(*lp);
    if (lp->heap.empty()) continue;
    if (best == nullptr || best->heap.front() > lp->heap.front()) {
      best = lp.get();
    }
  }
  return best;
}

std::size_t Scheduler::run_until(Time deadline) {
  static const obs::PhaseId dispatch_phase =
      obs::Profiler::instance().phase("scheduler/dispatch");
  std::size_t ran = 0;
  // Deferred scope: a run_until that finds no runnable event costs nothing.
  obs::ProfileScope prof;
  for (;;) {
    Lane* lane = find_next_lane();
    if (lane == nullptr || lane->heap.front().when > deadline) break;
    if (!prof.active()) prof.enter(dispatch_phase);
    run_top(*lane, /*exclusive=*/true);
    ++ran;
  }
  if (now_ < deadline) now_ = deadline;
  for (auto& lp : lanes_) lp->now = std::max(lp->now, now_);
  update_queue_gauge();
  return ran;
}

std::size_t Scheduler::run_all() {
  std::size_t ran = 0;
  while (step()) ++ran;
  return ran;
}

bool Scheduler::step() {
  Lane* lane = find_next_lane();
  if (lane == nullptr) return false;
  run_top(*lane, /*exclusive=*/true);
  return true;
}

std::size_t Scheduler::pending() const {
  std::size_t n = 0;
  for (const auto& lp : lanes_) n += lp->callbacks.size();
  return n;
}

std::size_t Scheduler::queue_size() const {
  std::size_t n = 0;
  for (const auto& lp : lanes_) n += lp->heap.size();
  return n;
}

void Scheduler::merge_outboxes() {
  // Single-threaded (barrier) merge: lanes in domain order, entries in
  // append order. Heap position depends only on the unique (when, id)
  // key, so the merged order is independent of worker interleaving.
  for (auto& lp : lanes_) {
    for (Outgoing& out : lp->outbox) {
      Lane& dest = *lanes_[out.dest];
      const Time when = std::max(out.when, dest.now);
      dest.heap.push_back(Event{when, out.id});
      std::push_heap(dest.heap.begin(), dest.heap.end(), std::greater<>{});
      dest.callbacks.emplace(out.id, std::move(out.fn));
    }
    lp->outbox.clear();
  }
}

void Scheduler::update_queue_gauge() {
  if (queue_depth_ == nullptr) return;
  const LaneCtx& ctx = t_lane_ctx_;
  // Inside a parallel window the gauge would race other lanes; it is
  // refreshed at the next barrier instead.
  if (ctx.sched == this && ctx.lane != nullptr && !ctx.exclusive) return;
  queue_depth_->set(static_cast<std::int64_t>(pending()));
}

void Scheduler::attach_obs(obs::Obs* obs) {
  if (obs == nullptr) {
    events_run_counter_ = nullptr;
    queue_depth_ = nullptr;
    return;
  }
  events_run_counter_ = &obs->metrics.counter("sim_events_run_total");
  queue_depth_ = &obs->metrics.gauge("sim_queue_depth");
  update_queue_gauge();
}

Scheduler::DomainScope::DomainScope(Scheduler& sched, DomainId domain)
    : prev_sched_(t_scope_ctx_.sched), prev_domain_(t_scope_ctx_.domain) {
  t_scope_ctx_ = ScopeCtx{&sched, domain};
}

Scheduler::DomainScope::~DomainScope() {
  t_scope_ctx_ = ScopeCtx{prev_sched_, prev_domain_};
}

std::string format_time(Time t) {
  const double secs = static_cast<double>(t) / static_cast<double>(kSecond);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", secs);
  return buf;
}

}  // namespace hc::sim
