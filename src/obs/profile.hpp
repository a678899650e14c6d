// Hierarchical wall-clock profiler: where does the CPU time go?
//
// The metrics registry and tracer (metrics.hpp / trace.hpp) attribute
// *simulated* time and are part of the deterministic, replay-fingerprinted
// exports. This profiler is the opposite: it attributes REAL wall-clock
// time (std::chrono::steady_clock) to named phases — scheduler/dispatch,
// net/deliver, consensus/<engine>/step, chain/execute, crypto/verify,
// state/flush — so optimization work knows what to attack. Because wall
// time is inherently nondeterministic, profiler output is kept strictly
// OUT of the metrics registry, the tracer and every fingerprinted export;
// it only ever reaches perfbench's traced-episode files
// (`--profile-out`: <episode>.json + <episode>.json.folded).
//
// Design constraints (DESIGN.md §13):
//   - Never perturb determinism. A scope reads the clock and writes to a
//     thread-private arena; it takes no locks on the hot path, allocates
//     only when a (parent, phase) pair is first seen, and cannot influence
//     event order. parallel_test passes with profiling enabled because the
//     profiler is invisible to everything the fingerprints cover.
//   - Low overhead: enter/exit is two steady_clock reads plus a short
//     linear scan of the parent's children. The report estimates its own
//     total overhead from a calibration loop so benches can assert it
//     stays below a few percent of runtime.
//   - Safe across ParallelExecutor lanes: each worker thread owns an
//     arena (a tree of (phase, parent) nodes); arenas are registered with
//     the profiler under a mutex on first use and merged by report() —
//     which must only run from driver context (no lanes executing), the
//     same discipline the registry's exporters already follow. Window
//     barriers establish exactly that context.
//
// Self vs cumulative time: arenas store a tree keyed by the scope *stack*
// (so recursion and shared phases stay distinguishable); cumulative time
// accumulates at each tree node, and self time falls out as
// total - sum(children). The flat per-phase table collapses recursion by
// counting only outermost instances toward a phase's cumulative total.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hc::obs {

/// Dense handle for an interned phase name. Resolve once at wiring time
/// (static local or constructor); never changes for a profiler's lifetime.
using PhaseId = std::uint32_t;

constexpr PhaseId kNoPhase = 0xffffffffu;

/// One node of the merged scope tree: a unique stack path.
struct ProfileNode {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  // cumulative: includes children
  std::int64_t self_ns = 0;   // total minus instrumented children
  std::vector<ProfileNode> children;  // sorted by name
};

/// Flat per-phase roll-up across every stack position.
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;    // scope entries (recursive instances included)
  std::int64_t total_ns = 0;  // cumulative; recursion collapsed to outermost
  std::int64_t self_ns = 0;
};

/// Snapshot produced by Profiler::report(): merged across all arenas.
struct ProfileReport {
  std::vector<ProfileNode> roots;
  std::vector<PhaseStat> phases;  // sorted by self_ns descending
  /// Sum of root totals == sum of all self times: every nanosecond inside
  /// at least one scope, counted once.
  std::int64_t attributed_ns = 0;
  std::uint64_t scopes = 0;  // completed enter/exit pairs
  /// scopes * calibrated per-scope cost — the profiler's own footprint.
  std::int64_t overhead_ns_est = 0;

  [[nodiscard]] bool empty() const { return phases.empty(); }
};

class Profiler {
 public:
  Profiler() = default;
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// The process-wide profiler every instrumentation site records into.
  /// Deliberately leaked (like SigCache) so a scope closing during static
  /// destruction (a global whose destructor runs instrumented code) never
  /// observes a dead instance.
  [[nodiscard]] static Profiler& instance();

  /// Intern `name`, returning a stable id. Thread-safe; call at wiring
  /// time, not per scope.
  [[nodiscard]] PhaseId phase(std::string_view name);

  /// Number of interned phases so far.
  [[nodiscard]] std::size_t phase_count() const;

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Toggle recording. Scopes opened while disabled record nothing (their
  /// exits are no-ops even if re-enabled mid-scope). Driver context only.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Merge every thread arena into one report. Must run from driver
  /// context: no ParallelExecutor window may be executing (window
  /// barriers / run_until returns establish this). Open scopes are not
  /// counted until they close.
  [[nodiscard]] ProfileReport report() const;

  /// Zero every arena's accumulators (tree shapes are kept — cheaper than
  /// freeing and re-growing). Driver context only; no scope may be open.
  void reset();

  /// Measured cost of one enter/exit pair in ns (cached calibration loop
  /// over a scratch arena). Used for ProfileReport::overhead_ns_est.
  [[nodiscard]] static std::int64_t scope_cost_ns();

  /// Report-time POD snapshot of one arena node (defined in profile.cpp).
  struct TreeNodePublic;

 private:
  friend class ProfileScope;

  struct TreeNode {
    PhaseId phase = kNoPhase;
    std::uint32_t parent = 0;
    std::int64_t total_ns = 0;
    std::uint64_t count = 0;
    /// (phase -> node index); small, scanned linearly.
    std::vector<std::pair<PhaseId, std::uint32_t>> children;
  };

  /// One thread's private scope tree. Only its owner thread writes it;
  /// report()/reset() read it from driver context.
  struct Arena {
    Arena() { nodes.push_back(TreeNode{}); }  // [0] = synthetic root
    std::vector<TreeNode> nodes;
    std::uint32_t current = 0;  // index of the innermost open scope
    std::uint64_t scopes = 0;   // completed enter/exit pairs
  };

  /// This thread's arena in this profiler, creating + registering on
  /// first use.
  [[nodiscard]] Arena& local_arena();

  /// Descend from arena.current into `id`, creating the child on first
  /// use. Returns the child index.
  static std::uint32_t push(Arena& arena, PhaseId id);

  // Relaxed atomic: toggled only from driver context with no lanes
  // running; a stale read in a worker merely records (or skips) a scope —
  // never affects simulation state.
  std::atomic<bool> enabled_{true};
  /// Unique per instance (never reused), keys the thread-local arena
  /// cache. Lazily assigned on first scope.
  std::atomic<std::uint64_t> id_{0};

  mutable std::mutex m_;
  std::vector<std::string> phase_names_;
  std::vector<std::unique_ptr<Arena>> arenas_;
};

/// RAII scope. Two forms:
///   ProfileScope s(id);            // enter now
///   ProfileScope s; ... s.enter(id);  // deferred: enter only if work found
/// The deferred form lets dispatch loops avoid charging empty polls.
class ProfileScope {
 public:
  ProfileScope() = default;
  explicit ProfileScope(PhaseId id) { enter(id); }
  ProfileScope(Profiler& profiler, PhaseId id) { enter(profiler, id); }
  ~ProfileScope() { exit(); }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  void enter(PhaseId id) { enter(Profiler::instance(), id); }
  void enter(Profiler& profiler, PhaseId id);

  /// Close early (idempotent; the destructor is then a no-op).
  void exit();

  [[nodiscard]] bool active() const { return arena_ != nullptr; }

  /// Wall ns since enter() — one extra clock read; 0 when inactive.
  [[nodiscard]] std::int64_t ns_since_enter() const;

 private:
  Profiler::Arena* arena_ = nullptr;
  std::uint32_t prev_ = 0;
  std::uint32_t node_ = 0;
  std::int64_t start_ns_ = 0;
};

// ------------------------------------------------------------- exporters
// (Profiler output never joins the deterministic exports in export.hpp.)

/// Folded-stack format ("a;b;c <self_ns>" per line), directly consumable
/// by flamegraph.pl / inferno / speedscope.
[[nodiscard]] std::string profile_to_folded(const ProfileReport& report);

/// JSON: {"attributed_ns":..,"scopes":..,"overhead_ns_est":..,
///        "phases":[{name,count,total_ns,self_ns}],"tree":[...nested...]}.
[[nodiscard]] std::string profile_to_json(const ProfileReport& report);

}  // namespace hc::obs
