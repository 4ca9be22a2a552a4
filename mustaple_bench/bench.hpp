// Shared pieces of the mustaple_bench driver: run options, the result
// record every workload fills, clocks, order statistics, a lock-free
// latency histogram, and a Chrome trace-event writer.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mustaple::bench {

struct Options {
  std::string workload;
  std::uint64_t seed = 2018;
  /// Measured time per run; set-up and replays come on top.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  std::string trace_out;
  /// Toy-sized inputs for the smoke test.
  bool toy = false;
  /// Campaign scan threads (the serving workloads fix their own).
  std::size_t threads = 2;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` is the gated set printed on the result
/// line; `detail` carries diagnostics for the --json record.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// A diagnostic for the --json record and the trace file.
  void note(const std::string& name, double value);
  void note(const std::string& name, const std::string& text);
  /// An end-to-end time or rate, reported at the reference machine speed:
  /// `raw` (kept as the diagnostic raw.<name>) times `factor`, which is
  /// Calibration::time_factor() for times and rate_factor() for rates.
  void scaled(const std::string& name, double raw, double factor,
              const std::string& unit);
  /// Records a failed correctness check (printed to stderr).
  void check(bool ok, const std::string& what);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> detail;  ///< name -> JSON value
};

// ---- clocks (CLOCK_MONOTONIC, the clock epoll_pwait2 deadlines use) ------

std::uint64_t now_ns();
std::uint64_t thread_cpu_ns();
std::uint64_t process_cpu_ns();
/// Sleeps until the absolute CLOCK_MONOTONIC instant `deadline_ns`.
void sleep_until_ns(std::uint64_t deadline_ns);
/// Drops this thread's timer slack to 1 ns so short waits wake on time
/// (the 50 us default shows up directly in measured latency).
void tighten_timer_slack();
/// getrusage peak RSS of this process, MiB.
double peak_rss_mb();

inline double ns_to_us(double ns) { return ns / 1e3; }
inline double ns_to_s(double ns) { return ns / 1e9; }

// ---- machine speed ---------------------------------------------------------

/// How fast this machine runs right now, from a fixed reference workload
/// (integer, memory, allocator and multiply work on 4 threads) that lives
/// in the benchmark, so no change to the program can move it. On a shared
/// virtual machine the speed drifts by tens of percent from minute to
/// minute; the end-to-end times are scaled by reference / measured so that
/// the drift largely cancels. Sample only while none of the program's
/// threads run.
class Calibration {
 public:
  /// Calibration time the reference machine reads on a typical run.
  static constexpr double kReferenceMs = 10.0;

  void sample();
  double median_ms() const;
  double time_factor() const { return kReferenceMs / median_ms(); }
  double rate_factor() const { return median_ms() / kReferenceMs; }

 private:
  std::vector<double> samples_ms_;
};

// ---- order statistics ----------------------------------------------------

/// Nearest-rank percentile, q in [0, 1]. Reorders `values`; 0 when empty.
double percentile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// Log-linear histogram of nanosecond durations, safe to record from many
/// threads at once (relaxed atomics). 16 sub-buckets per power of two keep
/// percentile estimates within ~4%.
class AtomicHistogram {
 public:
  void record(std::uint64_t ns);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double mean_ns() const;
  double percentile_ns(double q) const;

 private:
  static constexpr std::size_t kSub = 16;
  static constexpr std::size_t kBuckets = 64 * kSub;
  static std::size_t bucket_of(std::uint64_t ns);
  static double bucket_mid(std::size_t bucket);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};
};

// ---- Chrome trace-event output -------------------------------------------

/// Collects complete ("X") spans and flow arrows in memory and writes them
/// as Chrome trace-event JSON at the end of the run. Thread-safe.
class TraceWriter {
 public:
  /// `args` is a JSON object body without braces, e.g. "\"calls\": 3".
  void span(const std::string& name, int track, std::uint64_t start_ns,
            std::uint64_t end_ns, const std::string& args = "");
  /// One end of a flow arrow binding the spans enclosing `ts_ns` on
  /// `track`: phase 's' starts arrow `id`, phase 'f' ends it.
  void flow(char phase, std::uint64_t id, int track, std::uint64_t ts_ns);
  void name_track(int track, const std::string& name);
  bool write(const std::string& path, const std::string& other_data) const;

 private:
  mutable util::Mutex mu_;
  std::vector<std::string> events_ MUSTAPLE_GUARDED_BY(mu_);
};

/// Replay spans and the driver's own set-up/run spans share these tracks.
enum Track : int {
  kDriverTrack = 1,
  kReplayTrack = 2,
  kStepTrack = 3,
  kClientTrackBase = 100,
  kServerTrackBase = 200,
};

/// util.alloc.<counter>.peak_mb for every named allocation counter the
/// workloads charge.
void report_alloc_peaks(Report& report);

/// latency.p99_us (given; each workload defines its own estimator),
/// latency.p999_us, latency.max_us and latency.samples over `samples_us`:
/// per-layer metrics in a traced run, --json diagnostics otherwise.
void report_tail(Report& report, bool traced, double p99_us,
                 std::vector<double> samples_us);

// ---- workloads -------------------------------------------------------------

bool is_campaign(const std::string& workload);
bool is_serving(const std::string& workload);
void run_campaign(const Options& options, Report& report, TraceWriter& trace);
void run_serving(const Options& options, Report& report, TraceWriter& trace);

}  // namespace mustaple::bench
