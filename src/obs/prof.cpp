#include "obs/prof.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <sstream>

#include "util/strings.hpp"

namespace mustaple::obs {

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t cpu_now_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  struct timespec ts {};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return 0;
#endif
}

std::uint64_t next_profiler_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

/// Per-thread recording state. The owning thread is the only writer of
/// `stack` and `intern_cache` (no lock); `ring`/`table` are written by the
/// owner and read by exporters, both under `mu` — uncontended except while
/// a snapshot or /statusz render is in flight.
struct Profiler::ThreadState {
  static constexpr std::size_t kRing = 1024;
  struct Rec {
    PathId path = kRoot;
    std::uint64_t count = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t cpu_ns = 0;
  };

  util::Mutex mu;
  // SRCLINT-ALLOW(sl_unguarded_mutex_field): owner thread only, never shared
  std::vector<PathId> stack;
  std::array<Rec, kRing> ring MUSTAPLE_GUARDED_BY(mu);
  std::size_t ring_n MUSTAPLE_GUARDED_BY(mu) = 0;
  std::unordered_map<PathId, PhaseStats> table MUSTAPLE_GUARDED_BY(mu);
  /// (parent, name-pointer) -> path. Owner thread only; pointer identity is
  /// just a cache key — a same-content name at a different address merely
  /// takes the slow interning path once.
  // SRCLINT-ALLOW(sl_unguarded_mutex_field): owner thread only, never shared
  std::map<std::pair<PathId, const void*>, PathId> intern_cache;
};

Profiler::Profiler() : id_(next_profiler_id()) {}

// Threads must not record into a profiler after it is destroyed (the
// default profiler never is; test-local profilers join their workers
// first).
Profiler::~Profiler() = default;

Profiler::PathId Profiler::intern(PathId parent, const char* name) {
  util::MutexLock lock(paths_mu_);
  if (paths_.empty()) paths_.emplace_back();  // slot 0 = root, unused
  const auto key = std::make_pair(parent, std::string(name));
  const auto it = path_lookup_.find(key);
  if (it != path_lookup_.end()) return it->second;
  const PathId id = static_cast<PathId>(paths_.size());
  paths_.push_back(PathNode{parent, key.second});
  path_lookup_.emplace(key, id);
  return id;
}

Profiler::ThreadState* Profiler::register_thread_state() {
  util::MutexLock lock(states_mu_);
  states_.push_back(std::make_unique<ThreadState>());
  return states_.back().get();
}

Profiler::ThreadState& Profiler::tls_state() {
  // One-entry fast path (the common single-profiler case), backed by a
  // per-thread map keyed on the process-unique profiler id so a profiler
  // reconstructed at a recycled address can never alias a stale state.
  thread_local std::uint64_t cached_id = 0;
  thread_local ThreadState* cached = nullptr;
  if (cached != nullptr && cached_id == id_) return *cached;
  thread_local std::map<std::uint64_t, ThreadState*> by_profiler;
  ThreadState*& slot = by_profiler[id_];
  if (slot == nullptr) slot = register_thread_state();
  cached_id = id_;
  cached = slot;
  return *slot;
}

Profiler::PathId Profiler::current_path() {
  ThreadState& state = tls_state();
  return state.stack.empty() ? kRoot : state.stack.back();
}

void Profiler::push(PathId path) { tls_state().stack.push_back(path); }

void Profiler::pop() {
  ThreadState& state = tls_state();
  if (!state.stack.empty()) state.stack.pop_back();
}

void Profiler::fold_ring(ThreadState& state) MUSTAPLE_REQUIRES(state.mu) {
  for (std::size_t i = 0; i < state.ring_n; ++i) {
    const ThreadState::Rec& rec = state.ring[i];
    PhaseStats& stats = state.table[rec.path];
    stats.count += rec.count;
    stats.wall_ns += rec.wall_ns;
    stats.cpu_ns += rec.cpu_ns;
  }
  state.ring_n = 0;
}

void Profiler::record(PathId path, std::uint64_t wall_ns,
                      std::uint64_t cpu_ns, std::uint64_t count) {
  if (path == kRoot) return;
  ThreadState& state = tls_state();
  util::MutexLock lock(state.mu);
  if (state.ring_n == ThreadState::kRing) fold_ring(state);
  state.ring[state.ring_n++] = ThreadState::Rec{path, count, wall_ns, cpu_ns};
}

std::map<Profiler::PathId, Profiler::PhaseStats> Profiler::merged_locked()
    const {
  std::map<PathId, PhaseStats> merged;
  util::MutexLock states_lock(states_mu_);
  for (const auto& state : states_) {
    util::MutexLock lock(state->mu);
    fold_ring(*state);
    for (const auto& [path, stats] : state->table) {
      PhaseStats& out = merged[path];
      out.count += stats.count;
      out.wall_ns += stats.wall_ns;
      out.cpu_ns += stats.cpu_ns;
    }
  }
  return merged;
}

std::string Profiler::path_string(PathId path) const {
  util::MutexLock lock(paths_mu_);
  std::vector<const std::string*> parts;
  for (PathId p = path; p != kRoot; p = paths_[p].parent) {
    parts.push_back(&paths_[p].name);
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!out.empty()) out += ';';
    out += **it;
  }
  return out;
}

int Profiler::path_depth(PathId path) const {
  util::MutexLock lock(paths_mu_);
  int depth = 0;
  for (PathId p = path; p != kRoot; p = paths_[p].parent) ++depth;
  return depth;
}

std::vector<Profiler::Entry> Profiler::snapshot() const {
  const auto merged = merged_locked();

  // Wall time charged to each path's direct children, for self-time.
  std::map<PathId, std::uint64_t> child_wall;
  {
    util::MutexLock lock(paths_mu_);
    for (const auto& [path, stats] : merged) {
      child_wall[paths_[path].parent] += stats.wall_ns;
    }
  }

  std::vector<Entry> entries;
  entries.reserve(merged.size());
  for (const auto& [path, stats] : merged) {
    Entry entry;
    entry.path = path_string(path);
    {
      util::MutexLock lock(paths_mu_);
      entry.name = paths_[path].name;
    }
    entry.depth = path_depth(path);
    entry.stats = stats;
    const auto it = child_wall.find(path);
    const std::uint64_t children = it == child_wall.end() ? 0 : it->second;
    entry.self_wall_ns =
        stats.wall_ns > children ? stats.wall_ns - children : 0;
    entries.push_back(std::move(entry));
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.path < b.path; });
  return entries;
}

std::vector<Profiler::Entry> Profiler::top_phases(std::size_t n) const {
  std::vector<Entry> entries = snapshot();
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.stats.wall_ns != b.stats.wall_ns) {
      return a.stats.wall_ns > b.stats.wall_ns;
    }
    return a.path < b.path;  // deterministic tiebreak
  });
  if (entries.size() > n) entries.resize(n);
  return entries;
}

std::string Profiler::render_json() const {
  const std::vector<Entry> entries = snapshot();
  std::ostringstream out;
  out << "{\"schema\":\"mustaple-profile/1\",\"phases\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    if (i) out << ",";
    out << util::format(
        "{\"path\":\"%s\",\"name\":\"%s\",\"depth\":%d,\"count\":%llu,"
        "\"wall_ms\":%.3f,\"cpu_ms\":%.3f,\"self_wall_ms\":%.3f}",
        json_escape(e.path).c_str(), json_escape(e.name).c_str(), e.depth,
        static_cast<unsigned long long>(e.stats.count),
        static_cast<double>(e.stats.wall_ns) / 1e6,
        static_cast<double>(e.stats.cpu_ns) / 1e6,
        static_cast<double>(e.self_wall_ns) / 1e6);
  }
  out << "]}";
  return out.str();
}

std::string Profiler::render_folded() const {
  // Collapsed-stack format: one line per path with its SELF (exclusive)
  // value — inclusive values would double-count parents when a flamegraph
  // re-sums the hierarchy. Value unit: wall microseconds.
  std::ostringstream out;
  for (const Entry& e : snapshot()) {
    out << e.path << " " << e.self_wall_ns / 1000 << "\n";
  }
  return out.str();
}

std::string Profiler::summary(std::size_t top_n) const {
  const std::vector<Entry> top = top_phases(top_n);
  if (top.empty()) return "";
  std::ostringstream out;
  out << "Profile: top phases by wall time\n";
  for (const Entry& e : top) {
    out << util::format("  %-48s %10llu x %10.1fms wall %10.1fms cpu\n",
                        e.path.c_str(),
                        static_cast<unsigned long long>(e.stats.count),
                        static_cast<double>(e.stats.wall_ns) / 1e6,
                        static_cast<double>(e.stats.cpu_ns) / 1e6);
  }
  return out.str();
}

void Profiler::reset() {
  util::MutexLock states_lock(states_mu_);
  for (const auto& state : states_) {
    util::MutexLock lock(state->mu);
    state->ring_n = 0;
    state->table.clear();
  }
}

Profiler& default_profiler() {
  static auto* profiler = new Profiler();  // never destroyed: worker
  return *profiler;                        // threads may outlive main
}

ProfScope::ProfScope(const char* name, Profiler& profiler)
    : ProfScope(name, profiler.current_path(), profiler) {}

ProfScope::ProfScope(const char* name, Profiler::PathId parent,
                     Profiler& profiler, std::uint64_t count)
    : profiler_(&profiler), count_(count) {
  Profiler::ThreadState& state = profiler.tls_state();
  const auto key = std::make_pair(parent, static_cast<const void*>(name));
  const auto it = state.intern_cache.find(key);
  if (it != state.intern_cache.end()) {
    path_ = it->second;
  } else {
    path_ = profiler.intern(parent, name);
    state.intern_cache.emplace(key, path_);
  }
  state.stack.push_back(path_);
  wall_start_ns_ = wall_now_ns();
  cpu_start_ns_ = cpu_now_ns();
}

ProfScope::~ProfScope() {
  const std::uint64_t wall_end = wall_now_ns();
  const std::uint64_t cpu_end = cpu_now_ns();
  Profiler::ThreadState& state = profiler_->tls_state();
  if (!state.stack.empty()) state.stack.pop_back();
  profiler_->record(path_,
                    wall_end > wall_start_ns_ ? wall_end - wall_start_ns_ : 0,
                    cpu_end > cpu_start_ns_ ? cpu_end - cpu_start_ns_ : 0,
                    count_);
}

}  // namespace mustaple::obs
