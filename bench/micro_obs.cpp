// Microbenchmarks for the obs layer itself: what one instrumented call site
// costs in the hot paths (logger pre-flight and emit, counter/histogram
// updates), and — via micro_obs_off.cpp, a TU compiled with MUSTAPLE_OBS_OFF
// — what the same sites cost when the layer is compiled out. The disabled
// path must stay at ~0 ns so instrumentation never taxes a bench binary that
// opts out.
#include <benchmark/benchmark.h>

#include <memory>

#include "micro_obs_sites.hpp"
#include "obs/obs.hpp"

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
