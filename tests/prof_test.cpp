// Tests for the annotation-based phase profiler (obs/prof.hpp): path
// interning, scope accounting, the thread-count-invariant merge the
// scanner's fan-out relies on, ring-overflow folding, reset semantics, and
// the JSON / collapsed-stack exports. The Profiler CLASS is exercised
// directly (not via OBS_PROF_* macros) so this file compiles and passes
// identically under MUSTAPLE_OBS_OFF.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "obs/prof.hpp"
#include "util/thread_pool.hpp"

namespace mustaple::obs {
namespace {

// (path, count) pairs in the snapshot's deterministic order.
std::vector<std::pair<std::string, std::uint64_t>> shape(
    const Profiler& profiler) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const Profiler::Entry& entry : profiler.snapshot()) {
    out.emplace_back(entry.path, entry.stats.count);
  }
  return out;
}

TEST(Profiler, InternIsStableAndContentKeyed) {
  Profiler profiler;
  const auto a = profiler.intern(Profiler::kRoot, "scan");
  const auto b = profiler.intern(Profiler::kRoot, "scan");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Profiler::kRoot);

  // Same name under a different parent is a different path.
  const auto child = profiler.intern(a, "step");
  const auto other = profiler.intern(Profiler::kRoot, "step");
  EXPECT_NE(child, other);
  // Content-keyed: a distinct char buffer with equal contents interns to
  // the same id.
  const std::string scan_copy = std::string("sc") + "an";
  EXPECT_EQ(profiler.intern(Profiler::kRoot, scan_copy.c_str()), a);
}

TEST(Profiler, ScopesBuildNestedPaths) {
  Profiler profiler;
  {
    ProfScope study("study", profiler);
    {
      ProfScope scan("scan", profiler);
      ProfScope step("step", profiler);
    }
    ProfScope audit("audit", profiler);
  }
  const auto entries = profiler.snapshot();
  std::vector<std::string> paths;
  for (const auto& e : entries) paths.push_back(e.path);
  EXPECT_EQ(paths, (std::vector<std::string>{
                       "study", "study;audit", "study;scan",
                       "study;scan;step"}));
  for (const auto& e : entries) {
    EXPECT_EQ(e.stats.count, 1u) << e.path;
    EXPECT_EQ(e.depth, static_cast<int>(
                           1 + std::count(e.path.begin(), e.path.end(), ';')))
        << e.path;
  }
}

TEST(Profiler, CurrentPathTracksTheOpenStack) {
  Profiler profiler;
  EXPECT_EQ(profiler.current_path(), Profiler::kRoot);
  {
    ProfScope outer("outer", profiler);
    const auto outer_path = profiler.current_path();
    EXPECT_NE(outer_path, Profiler::kRoot);
    {
      ProfScope inner("inner", profiler);
      EXPECT_NE(profiler.current_path(), outer_path);
    }
    EXPECT_EQ(profiler.current_path(), outer_path);
  }
  EXPECT_EQ(profiler.current_path(), Profiler::kRoot);
}

TEST(Profiler, SelfWallExcludesDirectChildren) {
  Profiler profiler;
  {
    ProfScope parent("parent", profiler);
    ProfScope child("child", profiler);
  }
  const auto entries = profiler.snapshot();
  ASSERT_EQ(entries.size(), 2u);
  const auto& parent = entries[0];
  const auto& child = entries[1];
  ASSERT_EQ(parent.path, "parent");
  ASSERT_EQ(child.path, "parent;child");
  EXPECT_LE(child.stats.wall_ns, parent.stats.wall_ns);
  EXPECT_LE(parent.self_wall_ns, parent.stats.wall_ns);
  EXPECT_EQ(parent.self_wall_ns, parent.stats.wall_ns - child.stats.wall_ns);
  // A leaf's self time is its whole time.
  EXPECT_EQ(child.self_wall_ns, child.stats.wall_ns);
}

TEST(Profiler, RingOverflowFoldsWithoutLosingCounts) {
  Profiler profiler;
  constexpr std::size_t kScopes = 5000;  // well past the 1024-entry ring
  for (std::size_t i = 0; i < kScopes; ++i) {
    ProfScope scope("tick", profiler);
  }
  const auto entries = profiler.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].stats.count, kScopes);
}

// The property the scanner's two-phase fan-out depends on: the same
// logical workload produces the same path set and per-path counts no
// matter how many pool workers ran it, because worker scopes attach under
// an explicit parent token instead of the worker thread's (empty) stack.
// As in the scanner, one scope covers a pool chunk and counts its indices,
// so the count is still one per probe.
TEST(Profiler, MergeIsThreadCountInvariant) {
  auto run = [](std::size_t threads) {
    Profiler profiler;
    {
      ProfScope campaign("campaign", profiler);
      for (int step = 0; step < 3; ++step) {
        ProfScope step_scope("step", profiler);
        const auto parent = profiler.current_path();
        util::ThreadPool pool(threads);
        pool.parallel_for_chunks(97, [&](std::size_t begin, std::size_t end) {
          ProfScope probe("probe", parent, profiler, end - begin);
        });
      }
    }
    return shape(profiler);
  };
  const auto one = run(1);
  const auto two = run(2);
  const auto four = run(4);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  const std::vector<std::pair<std::string, std::uint64_t>> expected{
      {"campaign", 1},
      {"campaign;step", 3},
      {"campaign;step;probe", 3 * 97},
  };
  EXPECT_EQ(one, expected);
}

TEST(Profiler, ResetZeroesStatsButKeepsInternedPaths) {
  Profiler profiler;
  const auto path = profiler.intern(Profiler::kRoot, "phase");
  {
    ProfScope scope("phase", profiler);
  }
  ASSERT_EQ(profiler.snapshot().size(), 1u);
  profiler.reset();
  EXPECT_TRUE(profiler.snapshot().empty());  // zero-count paths are elided
  // The id survives reset: recording against it works and re-interning
  // returns the same id.
  EXPECT_EQ(profiler.intern(Profiler::kRoot, "phase"), path);
  profiler.record(path, 10, 5);
  const auto entries = profiler.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].stats.count, 1u);
  EXPECT_EQ(entries[0].stats.wall_ns, 10u);
}

TEST(Profiler, ScopeAndRecordChargeTheirCount) {
  Profiler profiler;
  const auto chunk = profiler.intern(Profiler::kRoot, "chunk");
  profiler.record(chunk, 10, 5, 16);
  {
    ProfScope scope("chunk", Profiler::kRoot, profiler, 7);
  }
  const auto entries = profiler.snapshot();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].stats.count, 23u);
}

TEST(Profiler, TopPhasesSortsByWallTime) {
  Profiler profiler;
  const auto heavy = profiler.intern(Profiler::kRoot, "heavy");
  const auto light = profiler.intern(Profiler::kRoot, "light");
  profiler.record(light, 100, 0);
  profiler.record(heavy, 10'000, 0);
  const auto top = profiler.top_phases(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].path, "heavy");
}

TEST(Profiler, RenderJsonCarriesSchemaAndPhases) {
  Profiler profiler;
  {
    ProfScope scope("alpha", profiler);
  }
  const std::string json = profiler.render_json();
  EXPECT_NE(json.find("\"schema\":\"mustaple-profile/1\""), std::string::npos);
  EXPECT_NE(json.find("\"path\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(Profiler, RenderFoldedEmitsOneLinePerPath) {
  Profiler profiler;
  {
    ProfScope outer("outer", profiler);
    ProfScope inner("inner", profiler);
  }
  const std::string folded = profiler.render_folded();
  EXPECT_NE(folded.find("outer "), std::string::npos);
  EXPECT_NE(folded.find("outer;inner "), std::string::npos);
  // Every non-comment line is "path<space>integer".
  std::size_t start = 0;
  while (start < folded.size()) {
    std::size_t end = folded.find('\n', start);
    if (end == std::string::npos) end = folded.size();
    const std::string line = folded.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    EXPECT_EQ(value.find_first_not_of("0123456789"), std::string::npos)
        << line;
  }
}

TEST(Profiler, SummaryMentionsTopPhase) {
  Profiler profiler;
  {
    ProfScope scope("the-phase", profiler);
  }
  const std::string summary = profiler.summary(5);
  EXPECT_NE(summary.find("the-phase"), std::string::npos);
}

}  // namespace
}  // namespace mustaple::obs
