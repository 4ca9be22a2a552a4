// Microbenchmarks for the obs layer itself: what one instrumented call site
// costs in the hot paths (logger pre-flight and emit, counter/histogram
// updates through a cached reference, a per-call lookup and the bound
// macro sites, the probe fan-out's profile scope per probe and per pool
// chunk), and — via micro_obs_off.cpp, a TU compiled with MUSTAPLE_OBS_OFF
// — what the same sites cost when the layer is compiled out. The disabled
// path must stay at ~0 ns so instrumentation never taxes a bench binary that
// opts out.
#include <benchmark/benchmark.h>

#include <iterator>
#include <memory>

#include "micro_obs_sites.hpp"
#include "obs/obs.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace mustaple;

// ------------------------------------------------------------- enabled ----

void BM_LogFilteredOut(benchmark::State& state) {
  obs::Logger logger;
  logger.add_sink(std::make_shared<obs::RingBufferSink>(8));
  logger.set_level(obs::Level::kWarn);
  for (auto _ : state) {
    if (logger.enabled(obs::Level::kDebug)) {
      logger.log(obs::Level::kDebug, "bench", "never emitted");
    }
  }
}
BENCHMARK(BM_LogFilteredOut);

void BM_LogToRingBuffer(benchmark::State& state) {
  obs::Logger logger;
  logger.add_sink(std::make_shared<obs::RingBufferSink>(1024));
  std::int64_t i = 0;
  for (auto _ : state) {
    logger.log(obs::Level::kInfo, "bench", "emitted",
               {obs::field("i", i++)});
  }
}
BENCHMARK(BM_LogToRingBuffer);

void BM_CounterIncCachedRef(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter& counter = registry.counter("mustaple_bench_total");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterIncCachedRef);

void BM_CounterIncByLookup(benchmark::State& state) {
  obs::Registry registry;
  for (auto _ : state) {
    registry.counter("mustaple_bench_total").inc();
  }
}
BENCHMARK(BM_CounterIncByLookup);

void BM_CounterIncLabelledLookup(benchmark::State& state) {
  obs::Registry registry;
  for (auto _ : state) {
    registry.counter("mustaple_bench_errors_total", {{"kind", "dns"}}).inc();
  }
}
BENCHMARK(BM_CounterIncLabelledLookup);

// The real macro: the site binds its default-registry cell on its first
// execution, so every later iteration is the guard check plus the increment.
void BM_CounterIncBoundSite(benchmark::State& state) {
  for (auto _ : state) {
    MUSTAPLE_COUNT("mustaple_bench_bound_total");
  }
}
BENCHMARK(BM_CounterIncBoundSite);

// A labelled site over the six vantage regions, cycling through them as the
// scanner's accumulate step does.
void BM_LabelledCounterBoundSite(benchmark::State& state) {
  static constexpr const char* kRegions[] = {"oregon", "virginia", "saopaulo",
                                             "paris",  "sydney",   "seoul"};
  constexpr std::size_t kRegionCount = std::size(kRegions);
  std::size_t region = 0;
  for (auto _ : state) {
    MUSTAPLE_COUNT_ENUM("mustaple_bench_bound_region_total", "region", region,
                        kRegionCount, kRegions[region]);
    region = region + 1 == kRegionCount ? 0 : region + 1;
    benchmark::DoNotOptimize(region);
  }
}
BENCHMARK(BM_LabelledCounterBoundSite);

// The probe fan-out's profile scope, both ways round: one iteration is one
// pool chunk of probes, timed with a scope per probe (two thread-CPU clock
// reads each) or with one scope for the chunk charged with its count.
void BM_ProfTaskScopePerProbe(benchmark::State& state) {
  const auto parent =
      obs::default_profiler().intern(obs::Profiler::kRoot, "bench.fanout");
  for (auto _ : state) {
    for (std::size_t p = 0; p < util::ThreadPool::kChunk; ++p) {
      OBS_PROF_TASK_SCOPE(parent, "bench.probe", 1);
      benchmark::DoNotOptimize(p);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(util::ThreadPool::kChunk));
}
BENCHMARK(BM_ProfTaskScopePerProbe);

void BM_ProfTaskScopePerChunk(benchmark::State& state) {
  const auto parent =
      obs::default_profiler().intern(obs::Profiler::kRoot, "bench.fanout");
  for (auto _ : state) {
    OBS_PROF_TASK_SCOPE(parent, "bench.chunk", util::ThreadPool::kChunk);
    for (std::size_t p = 0; p < util::ThreadPool::kChunk; ++p) {
      benchmark::DoNotOptimize(p);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(util::ThreadPool::kChunk));
}
BENCHMARK(BM_ProfTaskScopePerChunk);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Registry registry;
  obs::Histogram& histogram = registry.histogram("mustaple_bench_ms");
  double x = 0.0;
  for (auto _ : state) {
    histogram.observe(x);
    x += 0.37;
    if (x > 2000) x = 0;
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_RenderPrometheus(benchmark::State& state) {
  obs::Registry registry;
  for (int i = 0; i < 50; ++i) {
    registry.counter("mustaple_bench_total",
                     {{"cell", std::to_string(i)}}).inc();
  }
  registry.histogram("mustaple_bench_ms").observe(3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.render_prometheus());
  }
}
BENCHMARK(BM_RenderPrometheus);

// --------------------------------------------- compiled out (OBS_OFF TU) --

void BM_DisabledLogSite(benchmark::State& state) {
  std::int64_t i = 0;
  for (auto _ : state) {
    bench_obs::off_log_site(i++);
  }
}
BENCHMARK(BM_DisabledLogSite);

void BM_DisabledCounterSite(benchmark::State& state) {
  for (auto _ : state) {
    bench_obs::off_count_site();
    bench_obs::off_count_labelled_site();
  }
}
BENCHMARK(BM_DisabledCounterSite);

void BM_DisabledHistogramSite(benchmark::State& state) {
  double x = 0.0;
  for (auto _ : state) {
    bench_obs::off_observe_site(x);
    x += 1.0;
  }
}
BENCHMARK(BM_DisabledHistogramSite);

}  // namespace

BENCHMARK_MAIN();
