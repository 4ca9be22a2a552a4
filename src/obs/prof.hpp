// Pillar 6 (profiling): an annotation-based phase profiler. Call sites mark
// phases with OBS_PROF_SCOPE("scan.step"); each scope charges wall time
// (steady clock) AND thread CPU time to the call-stack of active phases
// ("study;availability-scan;scan.step"), aggregated — not logged per event —
// so a four-month campaign yields a compact profile. Exports:
//
//   * profile.json    — per-path count / wall / cpu / self-wall summary
//   * profile.folded  — collapsed-stack lines ("a;b;c 1234", value = wall
//                       microseconds) that feed flamegraph.pl / speedscope
//                       directly
//
// Threading model: each thread owns a ThreadState (phase stack + a small
// ring of closed-scope records that folds into a local table when full);
// the hot path touches only its own state under its own uncontended mutex.
// Merging walks every thread's table and sums by path — path set and counts
// are therefore THREAD-COUNT-INVARIANT for the scanner's two-phase fan-out
// (each pool chunk closes exactly one scope, charged with its probe count,
// no matter which worker ran it), which the prof_test asserts at 1/2/4
// threads. Worker tasks attach to the coordinator's phase via an explicit
// parent token (OBS_PROF_CURRENT + OBS_PROF_TASK_SCOPE) so a probe's path
// is identical whether it ran inline or on a pool worker.
//
// Times (wall/cpu totals) are real measurements and naturally vary run to
// run; nothing here feeds campaign outputs, so enabling profiling keeps
// them bit-identical (see DESIGN.md "Deterministic parallel scan
// campaigns").
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/config.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mustaple::obs {

class Profiler {
 public:
  /// Identifies one interned phase path; 0 is the root (no open phase).
  using PathId = std::uint32_t;
  static constexpr PathId kRoot = 0;

  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;
  ~Profiler();

  /// Interns `name` as a child path of `parent`; same (parent, name) always
  /// returns the same id. Thread-safe; locks only on first sight.
  PathId intern(PathId parent, const char* name);

  /// The calling thread's innermost open phase (kRoot when none).
  PathId current_path();

  /// Charges a closed scope that covered `count` units of work (its
  /// profile count) to `path`. Hot path: a ring append under the calling
  /// thread's own (uncontended) state mutex.
  void record(PathId path, std::uint64_t wall_ns, std::uint64_t cpu_ns,
              std::uint64_t count = 1);

  struct PhaseStats {
    std::uint64_t count = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t cpu_ns = 0;
  };
  struct Entry {
    std::string path;  ///< "study;availability-scan;scan.step"
    std::string name;  ///< last path component
    int depth = 1;
    PhaseStats stats;
    /// Wall time not attributed to any direct child phase.
    std::uint64_t self_wall_ns = 0;
  };

  /// Deterministic merge over every thread's records, sorted by path.
  std::vector<Entry> snapshot() const;
  /// The `n` heaviest phases by total wall time.
  std::vector<Entry> top_phases(std::size_t n) const;

  /// {"schema":"mustaple-profile/1","phases":[...]}.
  std::string render_json() const;
  /// Collapsed-stack lines for flamegraph/speedscope (wall microseconds).
  std::string render_folded() const;
  /// Human-readable top-phases table for reports.
  std::string summary(std::size_t top_n = 10) const;

  /// Zeroes every thread's statistics. Interned paths (and open stacks)
  /// survive — ids held by live scopes stay valid.
  void reset();

  // ---- scope support (used by ProfScope; not a call-site API) ----
  void push(PathId path);
  void pop();

 private:
  struct ThreadState;
  friend class ProfScope;

  ThreadState& tls_state();
  ThreadState* register_thread_state();
  // Requires state.mu held (annotated on the definition — ThreadState is
  // incomplete here, so the attribute argument cannot name its member yet).
  static void fold_ring(ThreadState& state);
  std::map<PathId, PhaseStats> merged_locked() const;
  std::string path_string(PathId path) const;
  int path_depth(PathId path) const;

  const std::uint64_t id_;  ///< process-unique, guards tls cache staleness

  mutable util::Mutex paths_mu_;
  struct PathNode {
    PathId parent = kRoot;
    std::string name;
  };
  std::vector<PathNode> paths_
      MUSTAPLE_GUARDED_BY(paths_mu_);  ///< index 0 unused (root)
  std::map<std::pair<PathId, std::string>, PathId> path_lookup_
      MUSTAPLE_GUARDED_BY(paths_mu_);

  mutable util::Mutex states_mu_;
  std::vector<std::unique_ptr<ThreadState>> states_
      MUSTAPLE_GUARDED_BY(states_mu_);
};

/// The process-wide profiler all OBS_PROF_* macros charge.
Profiler& default_profiler();

/// RAII phase scope. The parent form opens the phase under an explicit
/// parent path instead of the thread's current stack — how pool workers
/// attach their work to the coordinating thread's open phase — and charges
/// `count` to the phase's count, so a scope around a chunk of n probes
/// counts n.
class ProfScope {
 public:
  explicit ProfScope(const char* name, Profiler& profiler = default_profiler());
  ProfScope(const char* name, Profiler::PathId parent,
            Profiler& profiler = default_profiler(), std::uint64_t count = 1);
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;
  ~ProfScope();

 private:
  Profiler* profiler_;
  Profiler::PathId path_;
  std::uint64_t count_;
  std::uint64_t wall_start_ns_;
  std::uint64_t cpu_start_ns_;
};

}  // namespace mustaple::obs

#if MUSTAPLE_OBS_ENABLED

#define MUSTAPLE_PROF_CONCAT_(a_, b_) a_##b_
#define MUSTAPLE_PROF_CONCAT(a_, b_) MUSTAPLE_PROF_CONCAT_(a_, b_)

/// Times the enclosing scope as a phase nested under the thread's innermost
/// open phase: OBS_PROF_SCOPE("scan.execute_probe").
#define OBS_PROF_SCOPE(name_)                                        \
  ::mustaple::obs::ProfScope MUSTAPLE_PROF_CONCAT(mustaple_prof_scope_, \
                                                  __COUNTER__)(name_)

/// The current phase path, for handing to a worker task as its parent.
#define OBS_PROF_CURRENT() ::mustaple::obs::default_profiler().current_path()

/// Worker-side scope attached under an explicit parent token (captured on
/// the coordinating thread with OBS_PROF_CURRENT before the fan-out),
/// counting `count_` units of work: a pool chunk's index count.
#define OBS_PROF_TASK_SCOPE(token_, name_, count_)                      \
  ::mustaple::obs::ProfScope MUSTAPLE_PROF_CONCAT(mustaple_prof_scope_, \
                                                  __COUNTER__)(         \
      name_, token_, ::mustaple::obs::default_profiler(), count_)

#else  // MUSTAPLE_OBS_OFF: annotation sites vanish.

#define OBS_PROF_SCOPE(name_) ((void)0)
#define OBS_PROF_CURRENT() (::mustaple::obs::Profiler::kRoot)
#define OBS_PROF_TASK_SCOPE(token_, name_, count_) \
  ((void)(token_), (void)(count_))

#endif  // MUSTAPLE_OBS_ENABLED
