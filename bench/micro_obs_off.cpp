// Compiled with MUSTAPLE_OBS_OFF (see bench/CMakeLists.txt): these bodies
// are what every instrumented call site in the codebase becomes when the
// observability layer is compiled out.
#include "micro_obs_sites.hpp"

#include "obs/obs.hpp"

namespace mustaple::bench_obs {

void off_log_site([[maybe_unused]] std::int64_t i) {
  MUSTAPLE_LOG_INFO("bench", "disabled", ::mustaple::obs::field("i", i));
}

void off_count_site() { MUSTAPLE_COUNT("mustaple_bench_off_total"); }

void off_count_labelled_site() {
  MUSTAPLE_COUNT_L("mustaple_bench_off_errors_total", "kind", "dns");
}

void off_observe_site([[maybe_unused]] double x) {
  MUSTAPLE_OBSERVE("mustaple_bench_off_ms", x);
}

}  // namespace mustaple::bench_obs
