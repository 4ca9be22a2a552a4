// Call-site functions for the obs overhead benchmark. The _off variants are
// defined in micro_obs_off.cpp, which is compiled with MUSTAPLE_OBS_OFF so
// every macro in that TU genuinely expands to nothing — the benchmark
// measures the real disabled-path cost, not a hand-written stand-in.
#pragma once

#include <cstdint>

namespace mustaple::bench_obs {

void off_log_site(std::int64_t i);
void off_count_site();
void off_count_labelled_site();
void off_observe_site(double x);

}  // namespace mustaple::bench_obs
