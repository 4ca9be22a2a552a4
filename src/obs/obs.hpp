// mustaple::obs umbrella: one include gives call sites the structured
// logger, the metrics registry, and the phase profiler, behind macros that
// compile to NOTHING when MUSTAPLE_OBS_OFF is defined (e.g. a bench TU that
// wants to measure the simulator with zero instrumentation cost, or the
// whole build via -DMUSTAPLE_OBS=OFF). The macro layer is the supported
// call-site API; the classes behind it stay usable directly when a component
// wants its own Registry/Logger (tests do). Metric macros bind their cell
// once per call site (see obs/metrics.hpp), so the hot path pays the
// update, not a registry lookup.
//
// Naming convention for metrics: mustaple_<layer>_<name>[_total|_ms], e.g.
// mustaple_net_fetch_total, mustaple_loop_dispatch_latency_ms.
#pragma once

#include "obs/config.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

#if MUSTAPLE_OBS_ENABLED

/// Leveled structured log to the default logger. Fields are only built when
/// the level passes and at least one sink is attached.
#define MUSTAPLE_LOG(level_, component_, message_, ...)                     \
  do {                                                                      \
    ::mustaple::obs::Logger& mustaple_obs_lg =                              \
        ::mustaple::obs::default_logger();                                  \
    if (mustaple_obs_lg.enabled(level_)) {                                  \
      mustaple_obs_lg.log(level_, component_, message_, {__VA_ARGS__});     \
    }                                                                       \
  } while (0)

#define MUSTAPLE_LOG_DEBUG(component_, ...) \
  MUSTAPLE_LOG(::mustaple::obs::Level::kDebug, component_, __VA_ARGS__)
#define MUSTAPLE_LOG_INFO(component_, ...) \
  MUSTAPLE_LOG(::mustaple::obs::Level::kInfo, component_, __VA_ARGS__)
#define MUSTAPLE_LOG_WARN(component_, ...) \
  MUSTAPLE_LOG(::mustaple::obs::Level::kWarn, component_, __VA_ARGS__)
#define MUSTAPLE_LOG_ERROR(component_, ...) \
  MUSTAPLE_LOG(::mustaple::obs::Level::kError, component_, __VA_ARGS__)

/// Binds one call site to its cell: a function-local static in a
/// captureless lambda, initialized by `lookup_` on the site's first
/// execution and never again. Being captureless, the lambda rejects a
/// metric name built from local state, which binding once would freeze.
#define MUSTAPLE_OBS_BIND_(type_, lookup_)     \
  ([]() -> type_& {                            \
    static type_& mustaple_obs_cell = lookup_; \
    return mustaple_obs_cell;                  \
  }())

/// Counter/gauge/histogram one-liners against the default registry; each
/// site looks its cell up once.
#define MUSTAPLE_COUNT(name_) MUSTAPLE_COUNT_N(name_, 1)
#define MUSTAPLE_COUNT_N(name_, n_)                                       \
  MUSTAPLE_OBS_BIND_(::mustaple::obs::Counter,                           \
                     ::mustaple::obs::default_registry().counter(name_)) \
      .inc(n_)
/// Labelled counter for cold sites: looks its cell up on every call.
#define MUSTAPLE_COUNT_L(name_, key_, value_) \
  ::mustaple::obs::default_registry().counter(name_, {{key_, value_}}).inc()
/// Labelled counter whose label is one of `size_` values picked by
/// `index_` (an enum): the site keeps one cell per value, bound on that
/// value's first increment, when `value_` is evaluated to name it.
#define MUSTAPLE_COUNT_ENUM(name_, key_, index_, size_, value_)    \
  ([]() -> ::mustaple::obs::LabelledCounterSite<(size_)>& {        \
    static constinit ::mustaple::obs::LabelledCounterSite<(size_)> \
        mustaple_obs_site;                                         \
    return mustaple_obs_site;                                      \
  }())                                                             \
      .at(static_cast<std::size_t>(index_), name_, key_,           \
          [&] { return (value_); })                                \
      .inc()
#define MUSTAPLE_GAUGE_SET(name_, value_)                               \
  MUSTAPLE_OBS_BIND_(::mustaple::obs::Gauge,                           \
                     ::mustaple::obs::default_registry().gauge(name_)) \
      .set(static_cast<double>(value_))
#define MUSTAPLE_GAUGE_MAX(name_, value_)                               \
  MUSTAPLE_OBS_BIND_(::mustaple::obs::Gauge,                           \
                     ::mustaple::obs::default_registry().gauge(name_)) \
      .set_max(static_cast<double>(value_))
#define MUSTAPLE_OBSERVE(name_, value_)                                     \
  MUSTAPLE_OBS_BIND_(::mustaple::obs::Histogram,                           \
                     ::mustaple::obs::default_registry().histogram(name_)) \
      .observe(static_cast<double>(value_))

#else  // MUSTAPLE_OBS_OFF: every call site vanishes.

#define MUSTAPLE_LOG(level_, component_, message_, ...) ((void)0)
#define MUSTAPLE_LOG_DEBUG(component_, ...) ((void)0)
#define MUSTAPLE_LOG_INFO(component_, ...) ((void)0)
#define MUSTAPLE_LOG_WARN(component_, ...) ((void)0)
#define MUSTAPLE_LOG_ERROR(component_, ...) ((void)0)
#define MUSTAPLE_COUNT(name_) ((void)0)
#define MUSTAPLE_COUNT_N(name_, n_) ((void)0)
#define MUSTAPLE_COUNT_L(name_, key_, value_) ((void)0)
#define MUSTAPLE_COUNT_ENUM(name_, key_, index_, size_, value_) ((void)0)
#define MUSTAPLE_GAUGE_SET(name_, value_) ((void)0)
#define MUSTAPLE_GAUGE_MAX(name_, value_) ((void)0)
#define MUSTAPLE_OBSERVE(name_, value_) ((void)0)

#endif  // MUSTAPLE_OBS_ENABLED
