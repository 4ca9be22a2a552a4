#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/strings.hpp"

namespace mustaple::obs {

namespace {

// "%g"-style shortest representation for Prometheus values and `le` bounds.
// Non-finite values must use the exposition-format spellings (NaN, +Inf,
// -Inf) — printf's "nan"/"inf" are rejected by Prometheus parsers.
std::string number(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return util::format("%g", v);
}

// JSON has no NaN/Infinity literals; non-finite gauges render as null so
// the document stays parseable (CI pipes exports through json.tool).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  return util::format("%g", v);
}

// Prometheus label VALUES escape backslash, double-quote, and newline
// (exposition format section "text format details").
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// `name{k="v"}` as a JSON object key (label quotes need escaping).
std::string json_key(const std::string& name, const std::string& labels) {
  std::string escaped = "\"";
  for (char c : name + labels) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  escaped += "\"";
  return escaped;
}

}  // namespace

std::string canonical_labels(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) out += ",";
    // Escaping here keeps the canonical string valid exposition text AND a
    // sound map key: the escape is injective, so distinct raw label sets
    // can never collide onto one cell.
    out += sorted[i].first + "=\"" + escape_label_value(sorted[i].second) +
           "\"";
  }
  out += "}";
  return out;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  util::MutexLock lock(mu_);
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  sum_ += x;
  stats_.add(x);
}

double Histogram::quantile(double q) const {
  util::MutexLock lock(mu_);
  return quantile_locked(q);
}

double Histogram::quantile_locked(double q) const {
  if (stats_.count() == 0) return 0.0;
  if (q <= 0.0) return stats_.min();
  if (q >= 1.0) return stats_.max();

  const double rank = q * static_cast<double>(stats_.count());
  double cumulative = 0.0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets_[i]);
    if (cumulative + in_bucket >= rank) {
      // The rank falls inside bucket i: interpolate between its lower edge
      // (previous bound, or the observed min for the first bucket) and its
      // upper bound by the rank's position within the bucket.
      const double lower = i == 0 ? stats_.min() : bounds_[i - 1];
      const double upper = bounds_[i];
      const double fraction =
          in_bucket > 0.0 ? (rank - cumulative) / in_bucket : 1.0;
      const double estimate = lower + (upper - lower) * fraction;
      return std::min(std::max(estimate, stats_.min()), stats_.max());
    }
    cumulative += in_bucket;
  }
  // Rank lands in the +Inf overflow bucket: no upper bound to interpolate
  // toward, so the observed max is the best estimate.
  return stats_.max();
}

HistogramSnapshot Histogram::snapshot() const {
  util::MutexLock lock(mu_);
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets = buckets_;
  snap.sum = sum_;
  snap.count = stats_.count();
  snap.mean = stats_.mean();
  snap.min = stats_.min();
  snap.max = stats_.max();
  snap.p50 = quantile_locked(0.50);
  snap.p95 = quantile_locked(0.95);
  snap.p99 = quantile_locked(0.99);
  return snap;
}

const std::vector<double>& latency_ms_buckets() {
  static const std::vector<double> kBuckets = {1,  2,   5,   10,  20,   50,
                                               100, 200, 500, 1000, 5000};
  return kBuckets;
}

Counter& Registry::counter(const std::string& name, const Labels& labels) {
  util::MutexLock lock(mu_);
  return counters_[name][canonical_labels(labels)];
}

Gauge& Registry::gauge(const std::string& name, const Labels& labels) {
  util::MutexLock lock(mu_);
  return gauges_[name][canonical_labels(labels)];
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds,
                               const Labels& labels) {
  util::MutexLock lock(mu_);
  auto& cell = histograms_[name][canonical_labels(labels)];
  if (!cell) cell = std::make_unique<Histogram>(std::move(bounds));
  return *cell;
}

Histogram& Registry::histogram(const std::string& name, const Labels& labels) {
  return histogram(name, latency_ms_buckets(), labels);
}

std::uint64_t Registry::counter_value(const std::string& name,
                                      const Labels& labels) const {
  util::MutexLock lock(mu_);
  const auto family = counters_.find(name);
  if (family == counters_.end()) return 0;
  const auto cell = family->second.find(canonical_labels(labels));
  return cell == family->second.end() ? 0 : cell->second.value();
}

double Registry::gauge_value(const std::string& name,
                             const Labels& labels) const {
  util::MutexLock lock(mu_);
  const auto family = gauges_.find(name);
  if (family == gauges_.end()) return 0.0;
  const auto cell = family->second.find(canonical_labels(labels));
  return cell == family->second.end() ? 0.0 : cell->second.value();
}

const Histogram* Registry::find_histogram(const std::string& name,
                                          const Labels& labels) const {
  util::MutexLock lock(mu_);
  const auto family = histograms_.find(name);
  if (family == histograms_.end()) return nullptr;
  const auto cell = family->second.find(canonical_labels(labels));
  return cell == family->second.end() ? nullptr : cell->second.get();
}

void Registry::visit_counters(
    const std::function<void(const std::string&, const std::string&,
                             std::uint64_t)>& fn) const {
  util::MutexLock lock(mu_);
  for (const auto& [name, cells] : counters_) {
    for (const auto& [labels, cell] : cells) fn(name, labels, cell.value());
  }
}

void Registry::visit_gauges(
    const std::function<void(const std::string&, const std::string&, double)>&
        fn) const {
  util::MutexLock lock(mu_);
  for (const auto& [name, cells] : gauges_) {
    for (const auto& [labels, cell] : cells) fn(name, labels, cell.value());
  }
}

void Registry::visit_histograms(
    const std::function<void(const std::string&, const std::string&,
                             const Histogram&)>& fn) const {
  util::MutexLock lock(mu_);
  for (const auto& [name, cells] : histograms_) {
    for (const auto& [labels, cell] : cells) fn(name, labels, *cell);
  }
}

std::string Registry::render_prometheus() const {
  util::MutexLock lock(mu_);
  std::ostringstream out;
  for (const auto& [name, cells] : counters_) {
    out << "# TYPE " << name << " counter\n";
    for (const auto& [labels, cell] : cells) {
      out << name << labels << " " << cell.value() << "\n";
    }
  }
  for (const auto& [name, cells] : gauges_) {
    out << "# TYPE " << name << " gauge\n";
    for (const auto& [labels, cell] : cells) {
      out << name << labels << " " << number(cell.value()) << "\n";
    }
  }
  for (const auto& [name, cells] : histograms_) {
    out << "# TYPE " << name << " histogram\n";
    for (const auto& [labels, cell] : cells) {
      const HistogramSnapshot snap = cell->snapshot();
      // `le` joins any user labels inside one brace set.
      const std::string base =
          labels.empty() ? "" : labels.substr(0, labels.size() - 1) + ",";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
        cumulative += snap.buckets[i];
        out << name << "_bucket"
            << (base.empty() ? "{" : base) << "le=\""
            << number(snap.bounds[i]) << "\"} " << cumulative << "\n";
      }
      cumulative += snap.buckets.back();
      out << name << "_bucket" << (base.empty() ? "{" : base)
          << "le=\"+Inf\"} " << cumulative << "\n";
      out << name << "_sum" << labels << " " << number(snap.sum) << "\n";
      out << name << "_count" << labels << " " << snap.count << "\n";
      out << name << "_p50" << labels << " " << number(snap.p50) << "\n";
      out << name << "_p95" << labels << " " << number(snap.p95) << "\n";
      out << name << "_p99" << labels << " " << number(snap.p99) << "\n";
    }
  }
  return out.str();
}

std::string Registry::render_json() const {
  util::MutexLock lock(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, cells] : counters_) {
    for (const auto& [labels, cell] : cells) {
      if (!first) out << ",";
      first = false;
      out << json_key(name, labels) << ":" << cell.value();
    }
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, cells] : gauges_) {
    for (const auto& [labels, cell] : cells) {
      if (!first) out << ",";
      first = false;
      out << json_key(name, labels) << ":" << json_number(cell.value());
    }
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, cells] : histograms_) {
    for (const auto& [labels, cell] : cells) {
      if (!first) out << ",";
      first = false;
      const HistogramSnapshot snap = cell->snapshot();
      out << json_key(name, labels) << ":{\"count\":" << snap.count
          << ",\"sum\":" << json_number(snap.sum)
          << ",\"mean\":" << json_number(snap.mean)
          << ",\"min\":" << json_number(snap.min)
          << ",\"max\":" << json_number(snap.max)
          << ",\"p50\":" << json_number(snap.p50)
          << ",\"p95\":" << json_number(snap.p95)
          << ",\"p99\":" << json_number(snap.p99) << ",\"buckets\":[";
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
        cumulative += snap.buckets[i];
        if (i) out << ",";
        out << "{\"le\":" << json_number(snap.bounds[i])
            << ",\"count\":" << cumulative << "}";
      }
      cumulative += snap.buckets.back();
      if (!snap.bounds.empty()) out << ",";
      out << "{\"le\":\"+Inf\",\"count\":" << cumulative << "}]}";
    }
  }
  out << "}}";
  return out.str();
}

Registry& default_registry() {
  static Registry registry;
  return registry;
}

}  // namespace mustaple::obs
