#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <map>

namespace hc::obs {
namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t next_profiler_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Thread cache: (profiler id -> arena). Ids are never reused, so a stale
/// entry for a destroyed profiler can never be matched — and is never
/// dereferenced. Tiny in practice (the singleton plus the odd test
/// instance), hence a linear scan.
struct TlsEntry {
  std::uint64_t profiler_id = 0;
  void* arena = nullptr;
};

/// glibc runs TLS destructors BEFORE static destructors inside exit(), and
/// bench sidecar writers profile-report from static destructors — so the
/// cache marks itself dead instead of leaving a freed vector behind. The
/// flag is trivially destructible and its TLS storage outlives the object,
/// so reading it after destruction stays well-behaved in practice (same
/// pattern libstdc++ uses for stream availability).
struct TlsCache {
  std::vector<TlsEntry> entries;
  bool alive = true;
  ~TlsCache() { alive = false; }
};
thread_local TlsCache t_cache;

}  // namespace

Profiler::~Profiler() = default;

Profiler& Profiler::instance() {
  // Leaked on purpose: bench sidecar writers run from static destructors
  // and must still be able to take a report.
  static Profiler* p = new Profiler();
  return *p;
}

PhaseId Profiler::phase(std::string_view name) {
  std::lock_guard<std::mutex> lk(m_);
  for (std::size_t i = 0; i < phase_names_.size(); ++i) {
    if (phase_names_[i] == name) return static_cast<PhaseId>(i);
  }
  phase_names_.emplace_back(name);
  return static_cast<PhaseId>(phase_names_.size() - 1);
}

std::size_t Profiler::phase_count() const {
  std::lock_guard<std::mutex> lk(m_);
  return phase_names_.size();
}

Profiler::Arena& Profiler::local_arena() {
  std::uint64_t id = id_.load(std::memory_order_acquire);
  if (id == 0) {
    // Lazily assigned under the registry mutex; racing threads agree
    // because only the first assignment sticks.
    std::lock_guard<std::mutex> lk(m_);
    id = id_.load(std::memory_order_relaxed);
    if (id == 0) {
      id = next_profiler_id();
      id_.store(id, std::memory_order_release);
    }
  }
  TlsCache& cache = t_cache;
  if (cache.alive) {
    for (const TlsEntry& e : cache.entries) {
      if (e.profiler_id == id) return *static_cast<Arena*>(e.arena);
    }
  }
  auto arena = std::make_unique<Arena>();
  Arena* raw = arena.get();
  {
    std::lock_guard<std::mutex> lk(m_);
    arenas_.push_back(std::move(arena));
  }
  // After the cache's TLS destructor has run (a scope in some static
  // destructor at process exit), fall through without caching: every such
  // enter gets a fresh registered arena instead of touching freed memory.
  if (cache.alive) cache.entries.push_back(TlsEntry{id, raw});
  return *raw;
}

std::uint32_t Profiler::push(Arena& arena, PhaseId id) {
  TreeNode& parent = arena.nodes[arena.current];
  for (const auto& [phase, child] : parent.children) {
    if (phase == id) return child;
  }
  const auto child = static_cast<std::uint32_t>(arena.nodes.size());
  // Note: this invalidates `parent`; re-index below.
  arena.nodes.push_back(TreeNode{id, arena.current, 0, 0, {}});
  arena.nodes[arena.current].children.emplace_back(id, child);
  return child;
}

void ProfileScope::enter(Profiler& profiler, PhaseId id) {
  if (arena_ != nullptr || !profiler.enabled() || id == kNoPhase) return;
  Profiler::Arena& arena = profiler.local_arena();
  prev_ = arena.current;
  node_ = Profiler::push(arena, id);
  arena.current = node_;
  arena_ = &arena;
  start_ns_ = now_ns();
}

void ProfileScope::exit() {
  if (arena_ == nullptr) return;
  const std::int64_t elapsed = now_ns() - start_ns_;
  Profiler::TreeNode& node = arena_->nodes[node_];
  node.total_ns += elapsed > 0 ? elapsed : 0;
  node.count += 1;
  arena_->current = prev_;
  arena_->scopes += 1;
  arena_ = nullptr;
}

std::int64_t ProfileScope::ns_since_enter() const {
  if (arena_ == nullptr) return 0;
  const std::int64_t d = now_ns() - start_ns_;
  return d > 0 ? d : 0;
}

std::int64_t Profiler::scope_cost_ns() {
  static const std::int64_t cost = [] {
    // Calibrates against an explicit arena, NOT ProfileScope: the first
    // call often comes from a static destructor (bench sidecar flush via
    // report()) when the thread-local arena cache is already gone. Each
    // iteration mirrors one enter/exit pair exactly — tree descent, a
    // clock read on enter, a clock read plus accumulate on exit.
    Arena arena;
    constexpr PhaseId a = 0;
    constexpr PhaseId b = 1;
    constexpr int kIters = 4096;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kIters; ++i) {
      const std::uint32_t prev_a = arena.current;
      const std::uint32_t node_a = push(arena, a);
      arena.current = node_a;
      const std::int64_t start_a = now_ns();

      const std::uint32_t prev_b = arena.current;
      const std::uint32_t node_b = push(arena, b);
      arena.current = node_b;
      const std::int64_t start_b = now_ns();

      TreeNode& nb = arena.nodes[node_b];
      nb.total_ns += now_ns() - start_b;
      nb.count += 1;
      arena.current = prev_b;
      arena.scopes += 1;

      TreeNode& na = arena.nodes[node_a];
      na.total_ns += now_ns() - start_a;
      na.count += 1;
      arena.current = prev_a;
      arena.scopes += 1;
    }
    const std::int64_t t1 = now_ns();
    return std::max<std::int64_t>(1, (t1 - t0) / (2 * kIters));
  }();
  return cost;
}

// Report-time snapshot of one arena node: report() copies each arena into
// this POD form (arenas are quiescent in driver context).
struct Profiler::TreeNodePublic {
  PhaseId phase = kNoPhase;
  std::int64_t total_ns = 0;
  std::uint64_t count = 0;
  std::vector<std::uint32_t> children;
};

namespace {

/// Name-keyed accumulator tree the per-arena snapshots merge into.
struct MergeNode {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::map<std::string, MergeNode> children;
};

void merge_into(const std::vector<Profiler::TreeNodePublic>& nodes,
                const std::vector<std::string>& names, std::uint32_t index,
                MergeNode& parent) {
  const Profiler::TreeNodePublic& n = nodes[index];
  MergeNode& m = parent.children[names[n.phase]];
  m.count += n.count;
  m.total_ns += n.total_ns;
  for (const std::uint32_t c : n.children) {
    merge_into(nodes, names, c, m);
  }
}

ProfileNode to_profile_node(const std::string& name, const MergeNode& m) {
  ProfileNode out;
  out.name = name;
  out.count = m.count;
  out.total_ns = m.total_ns;
  std::int64_t child_total = 0;
  for (const auto& [child_name, child] : m.children) {
    out.children.push_back(to_profile_node(child_name, child));
    child_total += child.total_ns;
  }
  out.self_ns = std::max<std::int64_t>(0, m.total_ns - child_total);
  return out;
}

void flatten(const ProfileNode& node, bool phase_on_path,
             std::map<std::string, PhaseStat>& flat,
             const std::string& phase_name) {
  // Helper is invoked once per (node, phase) pair via flatten_all below.
  const bool is_phase = node.name == phase_name;
  PhaseStat& stat = flat[phase_name];
  if (is_phase) {
    stat.self_ns += node.self_ns;
    stat.count += node.count;
    if (!phase_on_path) stat.total_ns += node.total_ns;  // outermost only
  }
  for (const ProfileNode& c : node.children) {
    flatten(c, phase_on_path || is_phase, flat, phase_name);
  }
}

void collect_names(const ProfileNode& node, std::map<std::string, bool>& names) {
  names[node.name] = true;
  for (const ProfileNode& c : node.children) collect_names(c, names);
}

}  // namespace

ProfileReport Profiler::report() const {
  // Snapshot arenas + names under the registry lock. Arena contents are
  // only written by their owner threads, which are parked in driver
  // context — the lock protects the arenas_/phase_names_ vectors, not the
  // trees.
  std::vector<std::vector<TreeNodePublic>> trees;
  std::vector<std::string> names;
  std::uint64_t scopes = 0;
  {
    std::lock_guard<std::mutex> lk(m_);
    names = phase_names_;
    for (const auto& arena : arenas_) {
      scopes += arena->scopes;
      std::vector<TreeNodePublic> tree(arena->nodes.size());
      for (std::size_t i = 0; i < arena->nodes.size(); ++i) {
        const TreeNode& n = arena->nodes[i];
        tree[i].phase = n.phase;
        tree[i].total_ns = n.total_ns;
        tree[i].count = n.count;
        for (const auto& [_, child] : n.children) {
          tree[i].children.push_back(child);
        }
      }
      trees.push_back(std::move(tree));
    }
  }

  MergeNode root;
  for (const auto& tree : trees) {
    if (tree.empty()) continue;
    for (const std::uint32_t c : tree[0].children) {
      merge_into(tree, names, c, root);
    }
  }

  ProfileReport out;
  out.scopes = scopes;
  out.overhead_ns_est =
      static_cast<std::int64_t>(scopes) * scope_cost_ns();
  for (const auto& [name, m] : root.children) {
    out.roots.push_back(to_profile_node(name, m));
    out.attributed_ns += m.total_ns;
  }

  std::map<std::string, bool> phase_names;
  for (const ProfileNode& r : out.roots) collect_names(r, phase_names);
  std::map<std::string, PhaseStat> flat;
  for (const auto& [name, _] : phase_names) {
    for (const ProfileNode& r : out.roots) {
      flatten(r, /*phase_on_path=*/false, flat, name);
    }
  }
  for (auto& [name, stat] : flat) {
    stat.name = name;
    out.phases.push_back(stat);
  }
  std::sort(out.phases.begin(), out.phases.end(),
            [](const PhaseStat& a, const PhaseStat& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.name < b.name;
            });
  return out;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lk(m_);
  for (auto& arena : arenas_) {
    for (TreeNode& n : arena->nodes) {
      n.total_ns = 0;
      n.count = 0;
    }
    arena->scopes = 0;
  }
}

// ------------------------------------------------------------- exporters

namespace {

void append_folded(std::string& out, const ProfileNode& node,
                   const std::string& prefix) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  if (node.self_ns > 0) {
    out += path;
    out += ' ';
    out += std::to_string(node.self_ns);
    out += '\n';
  }
  for (const ProfileNode& c : node.children) append_folded(out, c, path);
}

void append_json_node(std::string& out, const ProfileNode& node) {
  out += "{\"name\":\"" + node.name + "\",\"count\":" +
         std::to_string(node.count) +
         ",\"total_ns\":" + std::to_string(node.total_ns) +
         ",\"self_ns\":" + std::to_string(node.self_ns) + ",\"children\":[";
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) out += ',';
    append_json_node(out, node.children[i]);
  }
  out += "]}";
}

}  // namespace

std::string profile_to_folded(const ProfileReport& report) {
  std::string out;
  for (const ProfileNode& r : report.roots) append_folded(out, r, "");
  return out;
}

std::string profile_to_json(const ProfileReport& report) {
  std::string out = "{\"attributed_ns\":" +
                    std::to_string(report.attributed_ns) +
                    ",\"scopes\":" + std::to_string(report.scopes) +
                    ",\"overhead_ns_est\":" +
                    std::to_string(report.overhead_ns_est) + ",\"phases\":[";
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const PhaseStat& p = report.phases[i];
    if (i != 0) out += ',';
    out += "{\"name\":\"" + p.name + "\",\"count\":" +
           std::to_string(p.count) +
           ",\"total_ns\":" + std::to_string(p.total_ns) +
           ",\"self_ns\":" + std::to_string(p.self_ns) + "}";
  }
  out += "],\"tree\":[";
  for (std::size_t i = 0; i < report.roots.size(); ++i) {
    if (i != 0) out += ',';
    append_json_node(out, report.roots[i]);
  }
  out += "]}";
  return out;
}

}  // namespace hc::obs
