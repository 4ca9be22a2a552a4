#include "bench.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <map>
#include <thread>

#include "util/alloc.hpp"

namespace mustaple::bench {

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

void Report::note(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  detail[name] = buf;
}

void Report::note(const std::string& name, const std::string& text) {
  detail[name] = "\"" + text + "\"";
}

void Report::scaled(const std::string& name, double raw, double factor,
                    const std::string& unit) {
  note("raw." + name, raw);
  metric(name, raw * factor, unit);
}

void report_alloc_peaks(Report& report) {
  static const char* const kCounters[] = {
      "ecosystem.population", "scan.targets", "scan.validation_cache",
      "scan.lint_cache", "ca.response_cache"};
  for (const char* name : kCounters) {
    report.metric(std::string("util.alloc.") + name + ".peak_mb",
                  static_cast<double>(
                      util::alloc_counter(name).peak_outstanding_bytes()) /
                      (1024.0 * 1024.0),
                  "MiB");
  }
}

void report_tail(Report& report, bool traced, double p99_us,
                 std::vector<double> samples_us) {
  const double p999 = percentile(samples_us, 0.999);
  const double max = percentile(samples_us, 1.0);
  const double count = static_cast<double>(samples_us.size());
  if (traced) {
    report.metric("latency.p99_us", p99_us, "us");
    report.metric("latency.p999_us", p999, "us");
    report.metric("latency.max_us", max, "us");
    report.metric("latency.samples", count, "count");
  } else {
    report.note("latency.p99_us", p99_us);
    report.note("latency.p999_us", p999);
    report.note("latency.max_us", max);
    report.note("latency.samples", count);
  }
}

namespace {
std::uint64_t read_clock(clockid_t clock) {
  struct timespec ts {};
  ::clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t now_ns() { return read_clock(CLOCK_MONOTONIC); }
std::uint64_t thread_cpu_ns() { return read_clock(CLOCK_THREAD_CPUTIME_ID); }
std::uint64_t process_cpu_ns() { return read_clock(CLOCK_PROCESS_CPUTIME_ID); }

void sleep_until_ns(std::uint64_t deadline_ns) {
  struct timespec ts {};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1'000'000'000ULL);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1'000'000'000ULL);
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::atomic<std::uint64_t> g_calibration_sink{0};

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One pass of the reference work: dependent integer arithmetic and
/// branches, random reads over a table larger than a core's L2,
/// allocator-heavy tree inserts, and 512-bit schoolbook products, whose
/// independent multiplies load the core's execution units where the
/// xorshift chain only measures latency.
double calibration_pass(const std::vector<std::uint64_t>& table,
                        std::uint64_t seed) {
  const std::uint64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL + seed;
  std::uint64_t sum = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    xorshift(x);
    sum += (x & 1) != 0 ? x >> 3 : x * 3;
  }
  for (int i = 0; i < 200'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    sum += table[(x >> 20) & (table.size() - 1)];
  }
  std::map<std::uint64_t, std::uint64_t> tree;
  for (std::uint64_t i = 0; i < 5'000; ++i) tree.emplace(xorshift(x), i);
  sum += tree.size();
  std::array<std::uint64_t, 8> a{};
  std::array<std::uint64_t, 8> b{};
  for (std::size_t k = 0; k < a.size(); ++k) {
    a[k] = xorshift(x);
    b[k] = xorshift(x);
  }
  for (int i = 0; i < 20'000; ++i) {
    std::array<std::uint64_t, 16> product{};
    for (std::size_t u = 0; u < 8; ++u) {
      unsigned __int128 carry = 0;
      for (std::size_t v = 0; v < 8; ++v) {
        carry += static_cast<unsigned __int128>(a[u]) * b[v] + product[u + v];
        product[u + v] = static_cast<std::uint64_t>(carry);
        carry >>= 64;
      }
      product[u + 8] = static_cast<std::uint64_t>(carry);
    }
    std::copy(product.begin() + 4, product.begin() + 12, a.begin());
  }
  sum += a[0];
  g_calibration_sink.fetch_add(sum, std::memory_order_relaxed);
  return static_cast<double>(now_ns() - t0) / 1e6;
}

}  // namespace

void Calibration::sample() {
  // Allocated per sample and freed after, so the table never holds up the
  // workload's peak RSS.
  std::vector<std::uint64_t> table(std::size_t{1} << 19);  // 4 MiB
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = i * 0x9e3779b97f4a7c15ULL;
  }
  constexpr std::size_t kThreads = 4;
  std::array<double, kThreads> per_thread{};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &per_thread, t] {
      std::array<double, 3> passes{};
      try {
        for (std::size_t pass = 0; pass < passes.size(); ++pass) {
          passes[pass] = calibration_pass(table, t * passes.size() + pass);
        }
        std::sort(passes.begin(), passes.end());
        per_thread[t] = passes[1];
      } catch (const std::exception&) {
        // Surfaces as a non-finite metric, which fails the run.
        per_thread[t] = std::numeric_limits<double>::quiet_NaN();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  double total = 0.0;
  for (double ms : per_thread) total += ms;
  samples_ms_.push_back(total / static_cast<double>(kThreads));
}

double Calibration::median_ms() const { return median(samples_ms_); }

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(q * static_cast<double>(n) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::size_t AtomicHistogram::bucket_of(std::uint64_t ns) {
  if (ns < kSub) return static_cast<std::size_t>(ns);
  const int exp = std::bit_width(ns) - 1;  // >= 4
  const std::uint64_t sub = (ns >> (exp - 4)) & (kSub - 1);
  return std::min(kBuckets - 1,
                  static_cast<std::size_t>(exp - 3) * kSub +
                      static_cast<std::size_t>(sub));
}

double AtomicHistogram::bucket_mid(std::size_t bucket) {
  if (bucket < kSub) return static_cast<double>(bucket);
  const std::size_t exp = bucket / kSub + 3;
  const std::size_t sub = bucket % kSub;
  const double width = static_cast<double>(1ULL << (exp - 4));
  return static_cast<double>(1ULL << exp) +
         (static_cast<double>(sub) + 0.5) * width;
}

void AtomicHistogram::record(std::uint64_t ns) {
  buckets_[bucket_of(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
}

double AtomicHistogram::mean_ns() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0
                : static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
                      static_cast<double>(n);
}

double AtomicHistogram::percentile_ns(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(q * static_cast<double>(n) + 0.999999));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) return bucket_mid(b);
  }
  return bucket_mid(kBuckets - 1);
}

namespace {
// Trace timestamps are microseconds since the process started timing.
const std::uint64_t g_trace_base_ns = now_ns();

std::string fmt_us(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ns_to_us(static_cast<double>(ns)));
  return buf;
}

std::string trace_us(std::uint64_t ns) {
  return fmt_us(ns - std::min(ns, g_trace_base_ns));
}
}  // namespace

void TraceWriter::span(const std::string& name, int track,
                       std::uint64_t start_ns, std::uint64_t end_ns,
                       const std::string& args) {
  std::string event =
      "{\"name\": \"" + name +
      "\", \"cat\": \"bench\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
      std::to_string(track) + ", \"ts\": " + trace_us(start_ns) +
      ", \"dur\": " + fmt_us(end_ns - std::min(end_ns, start_ns));
  if (!args.empty()) event += ", \"args\": {" + args + "}";
  event += "}";
  util::MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

void TraceWriter::flow(char phase, std::uint64_t id, int track,
                       std::uint64_t ts_ns) {
  std::string event = "{\"name\": \"request\", \"cat\": \"bench\", \"ph\": \"";
  event += phase;
  event += "\", \"id\": " + std::to_string(id) +
           ", \"pid\": 1, \"tid\": " + std::to_string(track) +
           ", \"ts\": " + trace_us(ts_ns) +
           (phase == 'f' ? ", \"bp\": \"e\"}" : "}");
  util::MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

void TraceWriter::name_track(int track, const std::string& name) {
  std::string event =
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " +
      std::to_string(track) + ", \"args\": {\"name\": \"" + name + "\"}}";
  util::MutexLock lock(mu_);
  events_.push_back(std::move(event));
}

bool TraceWriter::write(const std::string& path,
                        const std::string& other_data) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"otherData\": {", f);
  std::fputs(other_data.c_str(), f);
  std::fputs("},\n\"traceEvents\": [\n", f);
  util::MutexLock lock(mu_);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    std::fputs(events_[i].c_str(), f);
    std::fputs(i + 1 < events_.size() ? ",\n" : "\n", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace mustaple::bench
