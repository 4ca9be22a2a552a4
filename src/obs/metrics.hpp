// Metrics registry: named counters, gauges, and fixed-bucket histograms with
// Prometheus-text and JSON exporters. Metric names follow the repo-wide
// convention `mustaple_<layer>_<name>` (see docs/OBSERVABILITY.md); label
// sets are canonicalized (sorted by key) so the same metric is always the
// same cell.
//
// Cells live as long as their registry: nothing erases one, so a reference
// bound once stays valid. The MUSTAPLE_* macros (obs/obs.hpp) rely on that:
// each call site looks its cell up on its first execution and keeps the
// reference, and a labelled site whose label takes a closed set of values
// (LabelledCounterSite) binds each value's cell on that value's first
// increment. Hot paths therefore pay the increment, not the lookup.
//
// Thread safety: Counter::inc is lock-free (relaxed atomic); Gauge writes
// and Histogram::observe take a per-cell mutex; cell lookup and the
// visit/render paths take a registry-wide mutex. Returned cell references
// stay valid and usable concurrently (map nodes are stable). Aggregate
// reads (visit_*, render_*, Histogram accessors returning references)
// assume writers have quiesced — the scanner only reads at step barriers.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace mustaple::obs {

/// Label pairs attached to one metric cell, e.g. {{"kind", "dns"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) {
    util::MutexLock lock(mu_);
    value_ = v;
    has_sample_ = true;
  }
  void add(double d) {
    util::MutexLock lock(mu_);
    value_ += d;
    has_sample_ = true;
  }
  /// High-water-mark update: keeps the maximum ever seen. The first sample
  /// is taken unconditionally — cells initialize to 0.0, so comparing
  /// against the initial value would silently pin an all-negative series'
  /// high-water mark at 0.
  void set_max(double v) {
    util::MutexLock lock(mu_);
    if (!has_sample_ || v > value_) value_ = v;
    has_sample_ = true;
  }
  double value() const {
    util::MutexLock lock(mu_);
    return value_;
  }

 private:
  mutable util::Mutex mu_;
  double value_ MUSTAPLE_GUARDED_BY(mu_) = 0.0;
  bool has_sample_ MUSTAPLE_GUARDED_BY(mu_) = false;
};

/// One consistent, fully-owned view of a histogram, taken under its lock —
/// the render primitive safe against concurrent observe() (the reference
/// accessors below are not, and remain only for quiesced-reader callers).
struct HistogramSnapshot {
  std::vector<double> bounds;
  /// Per-bucket (non-cumulative); size bounds.size() + 1, +Inf last.
  std::vector<std::uint64_t> buckets;
  double sum = 0.0;
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Fixed upper-bound buckets plus an implicit +Inf bucket, cumulative like
/// Prometheus's `le` convention when exported.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  /// Thread-safe; holds the cell's mutex for the bucket/sum/stats update.
  void observe(double x);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1, the last
  /// entry being the +Inf overflow bucket. Reference-returning accessors
  /// (this and stats()) require concurrent observers to have quiesced.
  const std::vector<std::uint64_t>& bucket_counts() const
      MUSTAPLE_NO_THREAD_SAFETY_ANALYSIS {
    return buckets_;  // quiesced-reader contract, see above
  }
  std::size_t count() const {
    util::MutexLock lock(mu_);
    return stats_.count();
  }
  double sum() const {
    util::MutexLock lock(mu_);
    return sum_;
  }
  const util::OnlineStats& stats() const MUSTAPLE_NO_THREAD_SAFETY_ANALYSIS {
    return stats_;  // quiesced-reader contract, see bucket_counts()
  }

  /// Bucket-interpolated quantile estimate for q in (0, 1], Prometheus
  /// histogram_quantile style: find the bucket the rank falls in, then
  /// interpolate linearly inside it. Quantiles landing in the +Inf overflow
  /// bucket return the observed max; results are clamped to the observed
  /// [min, max]. 0 when empty.
  double quantile(double q) const;
  double p50() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }

  /// Everything a renderer needs, captured atomically under the cell mutex.
  /// Safe while other threads observe() — how the introspection server
  /// renders /metrics mid-campaign.
  HistogramSnapshot snapshot() const;

 private:
  double quantile_locked(double q) const MUSTAPLE_REQUIRES(mu_);

  mutable util::Mutex mu_;
  // SRCLINT-ALLOW(sl_unguarded_mutex_field): immutable after construction
  std::vector<double> bounds_;  ///< sorted ascending upper bounds; immutable
  std::vector<std::uint64_t> buckets_ MUSTAPLE_GUARDED_BY(mu_);
  double sum_ MUSTAPLE_GUARDED_BY(mu_) = 0.0;
  util::OnlineStats stats_ MUSTAPLE_GUARDED_BY(mu_);
};

/// Default bounds for millisecond-scale latencies (fetch RTTs, dispatch).
const std::vector<double>& latency_ms_buckets();

/// Owns all metric cells. Lookup creates on first use; returned references
/// stay valid for the registry's lifetime (map nodes are stable and no cell
/// is ever erased).
class Registry {
 public:
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {});
  /// First call fixes the bucket bounds; later calls ignore `bounds`.
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Read-only lookups that do NOT create cells; 0 / nullptr when absent.
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;
  double gauge_value(const std::string& name, const Labels& labels = {}) const;
  const Histogram* find_histogram(const std::string& name,
                                  const Labels& labels = {}) const;

  /// Read-only iteration over every cell, in name-then-label order — the
  /// snapshot primitive behind obs::Timeline.
  void visit_counters(
      const std::function<void(const std::string& name,
                               const std::string& labels,
                               std::uint64_t value)>& fn) const;
  void visit_gauges(const std::function<void(const std::string& name,
                                             const std::string& labels,
                                             double value)>& fn) const;
  void visit_histograms(
      const std::function<void(const std::string& name,
                               const std::string& labels,
                               const Histogram& histogram)>& fn) const;

  /// Prometheus text exposition format (one `# TYPE` line per family;
  /// histograms additionally expose `_p50`/`_p95`/`_p99` estimates).
  std::string render_prometheus() const;
  /// Single-line JSON object with "counters"/"gauges"/"histograms" sections.
  std::string render_json() const;

 private:
  // name -> canonical label string ("" or `{k="v",...}`) -> cell.
  template <typename T>
  using Family = std::map<std::string, std::map<std::string, T>>;

  mutable util::Mutex mu_;  ///< guards the family maps, not the cells
  Family<Counter> counters_ MUSTAPLE_GUARDED_BY(mu_);
  Family<Gauge> gauges_ MUSTAPLE_GUARDED_BY(mu_);
  Family<std::unique_ptr<Histogram>> histograms_ MUSTAPLE_GUARDED_BY(mu_);
};

/// The process-wide registry all MUSTAPLE_* macros write to.
Registry& default_registry();

/// One labelled counter call site whose label takes at most `N` values,
/// addressed by a dense index (an enum's value): each value's cell in the
/// default registry is looked up on that value's first increment and kept,
/// so only values a site incremented are ever exported. Zero-initialized
/// and constant-initialized, so a function-local instance costs no guard;
/// concurrent first increments of one value look up the same cell and
/// store the same pointer. Behind MUSTAPLE_COUNT_ENUM.
template <std::size_t N>
class LabelledCounterSite {
 public:
  /// `label()` yields the label value for `index`; called on a miss only.
  template <typename LabelFn>
  Counter& at(std::size_t index, const char* name, const char* key,
              LabelFn&& label) {
    std::atomic<Counter*>& slot = cells_.at(index);
    Counter* cell = slot.load(std::memory_order_acquire);
    if (cell == nullptr) {
      cell = &default_registry().counter(name, {{key, label()}});
      slot.store(cell, std::memory_order_release);
    }
    return *cell;
  }

 private:
  std::array<std::atomic<Counter*>, N> cells_{};
};

/// `{k="v",k2="v2"}` with keys sorted; "" for no labels.
std::string canonical_labels(const Labels& labels);

}  // namespace mustaple::obs
