// Discrete-event scheduler: the heartbeat of the whole simulation.
//
// Every asynchronous action in the system — a gossip hop, a block proposal
// timer, a consensus timeout, a checkpoint window — is an event scheduled
// here. Events are partitioned into per-domain *lanes*: domain 0 is the
// driver/global lane (test drivers, chaos fault injection, hierarchy
// bootstrap), and the runtime assigns one further domain per subnet. Lanes
// let sim::ParallelExecutor run independent subnets on worker threads
// inside conservative time windows while cross-lane sends travel through
// per-lane outboxes merged at window barriers.
//
// Event ids are globally unique — the origin domain lives in the top bits,
// a per-lane sequence number in the low bits — so the (when, id) order is
// total and runs are deterministic regardless of worker count. Used
// directly (run_until / run_all / step), the scheduler behaves exactly
// like the classic single-heap, FIFO-stable event loop: everything lands
// in lane 0 and (when, id) degenerates to (when, schedule order).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "sim/clock.hpp"

namespace hc::sim {

class ParallelExecutor;

/// Handle for cancelling a scheduled event. Encodes the origin lane, so
/// ids are globally unique and (when, id) is a total order with no ties.
using EventId = std::uint64_t;

/// Identifies an event lane. Domain 0 is the driver/global lane; the
/// runtime creates one domain per subnet via add_domain().
using DomainId = std::uint32_t;

constexpr DomainId kGlobalDomain = 0;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  Scheduler();
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time: the running lane's clock when called from
  /// inside an event callback, the global (window) clock otherwise.
  [[nodiscard]] Time now() const;

  /// Create a new event lane and return its domain id. Must be called
  /// from driver context or an exclusive (single-threaded) event — never
  /// from inside a parallel window.
  DomainId add_domain();

  [[nodiscard]] std::size_t domain_count() const { return lanes_.size(); }

  /// The domain new events land in by default: the running lane's domain
  /// inside an event callback, an active DomainScope override otherwise,
  /// else domain 0.
  [[nodiscard]] DomainId current_domain() const;

  /// Schedule `fn` to run `delay` from now (delay >= 0; 0 = "next tick",
  /// still asynchronous). Returns an id usable with cancel().
  EventId schedule(Duration delay, Callback fn);

  /// Schedule into a specific domain's lane. From inside a parallel
  /// window, a cross-domain send is deferred through the source lane's
  /// outbox and merged into the destination heap at the next barrier;
  /// `delay` must then be >= the executor's lookahead (network latency
  /// guarantees this for all deliveries).
  EventId schedule_in(DomainId domain, Duration delay, Callback fn);

  /// Cancel a pending event. Safe to call for already-fired ids (no-op).
  /// Only same-lane cancellation is supported from inside a parallel
  /// window (engine timers are always same-lane); a cross-lane cancel
  /// from a worker is a deliberate no-op.
  void cancel(EventId id);

  /// Run events until the queue is empty or `deadline` is passed; the
  /// clock stops at the earlier of the two. Returns events run. This is
  /// the single-threaded path; Hierarchy routes through ParallelExecutor.
  std::size_t run_until(Time deadline);

  /// Run until the queue drains completely.
  std::size_t run_all();

  /// Run exactly one event if present; returns false when idle.
  bool step();

  /// Live (not-yet-fired, not-cancelled) event count across all lanes.
  [[nodiscard]] std::size_t pending() const;

  /// Total heap entries across all lanes, including cancelled residue
  /// that has not been popped or compacted yet. Lazy compaction bounds
  /// this at ~2x pending() per lane.
  [[nodiscard]] std::size_t queue_size() const;

  /// Total events fired so far.
  [[nodiscard]] std::uint64_t events_run() const {
    return events_run_.load(std::memory_order_relaxed);
  }

  /// Route scheduler metrics (events-run counter, queue-depth gauge) into
  /// `obs`'s registry. Pass nullptr to detach.
  void attach_obs(obs::Obs* obs);

  /// RAII default-domain override for driver code constructing components
  /// whose timers belong in a subnet's lane (e.g. SubnetNode::start()
  /// arming consensus timers before any event has run in that lane).
  class DomainScope {
   public:
    DomainScope(Scheduler& sched, DomainId domain);
    ~DomainScope();
    DomainScope(const DomainScope&) = delete;
    DomainScope& operator=(const DomainScope&) = delete;

   private:
    Scheduler* prev_sched_;
    DomainId prev_domain_;
  };

 private:
  friend class ParallelExecutor;

  static constexpr int kSeqBits = 40;  // 24-bit domain, 40-bit sequence
  static constexpr EventId make_id(DomainId domain, std::uint64_t seq) {
    return (static_cast<EventId>(domain) << kSeqBits) | seq;
  }

  struct Event {
    Time when;
    EventId id;
    // Ordered as a min-heap via operator> with std::greater. Ids are
    // globally unique, so this order has no ties and heap pops are
    // deterministic regardless of insertion interleaving.
    friend bool operator>(const Event& a, const Event& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  /// A cross-lane send deferred until the next window barrier.
  struct Outgoing {
    DomainId dest;
    Time when;
    EventId id;
    Callback fn;
  };

  struct Lane {
    DomainId domain = 0;
    Time now = 0;
    std::uint64_t next_seq = 1;
    std::size_t cancelled = 0;  // cancelled entries still in the heap
    std::vector<Event> heap;    // min-heap by (when, id) via std::greater
    std::unordered_map<EventId, Callback> callbacks;
    std::vector<Outgoing> outbox;
  };

  /// Which lane (if any) this thread is executing, and whether it holds
  /// exclusive (single-threaded) access to the whole scheduler.
  struct LaneCtx {
    Scheduler* sched = nullptr;
    Lane* lane = nullptr;
    DomainId domain = 0;
    bool exclusive = false;
  };
  struct ScopeCtx {
    Scheduler* sched = nullptr;
    DomainId domain = 0;
  };
  static thread_local LaneCtx t_lane_ctx_;
  static thread_local ScopeCtx t_scope_ctx_;

  EventId insert(DomainId domain, Time when, Callback fn);
  void run_top(Lane& lane, bool exclusive);
  Lane* find_next_lane();
  static void skip_cancelled(Lane& lane);
  static void maybe_compact(Lane& lane);
  void merge_outboxes();
  void update_queue_gauge();

  Time now_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::uint64_t> events_run_{0};
  obs::Counter* events_run_counter_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
};

}  // namespace hc::sim
