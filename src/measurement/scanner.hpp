// The measurement client of paper §5.1: OCSP lookups for every scan target
// against its responder, on a fixed cadence, from all six vantage points,
// with on-the-fly aggregation into exactly the statistics behind Figures
// 3-9 and the §5.4 producedAt analysis.
//
// Scale note: the paper probes 14,634 certificates hourly for 4.3 months
// (~280M probes). The scanner keeps the mechanism and the proportions but
// the default cadence/population are scaled down (see EXPERIMENTS.md); both
// are knobs.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "lint/lint.hpp"
#include "measurement/ecosystem.hpp"
#include "ocsp/verify.hpp"
#include "util/alloc.hpp"
#include "util/sharded_cache.hpp"
#include "util/stats.hpp"

namespace mustaple::measurement {

struct ScanConfig {
  /// Probe cadence (paper: 1 hour).
  util::Duration interval = util::Duration::hours(12);
  /// Optional cap on scan steps (0 = run the whole campaign window).
  std::size_t max_steps = 0;
  /// When false, only transport/HTTP availability is recorded (Figs 3/4)
  /// and the client-side response validation is skipped.
  bool validate_responses = true;
  /// When true (and validate_responses is on), every HTTP-200 body is also
  /// run through the lint::RuleRegistry::builtin() catalog; findings
  /// aggregate into lint_report(). Clock-free rules only, so a target's
  /// findings hold for as long as the body it returns stays the same.
  bool lint_responses = true;
  /// Worker threads for the per-step probe fan-out. 0 = auto: the
  /// MUSTAPLE_SCAN_THREADS environment variable when set, else 1. Every
  /// output of the scan — step totals, per-responder stats, derived
  /// figures, metrics, timeline, trace — is bit-identical for every value
  /// of this knob (see DESIGN.md "Deterministic parallel scan campaigns").
  std::size_t threads = 0;
};

/// Per-(responder, region) accumulators.
struct ResponderRegionStats {
  std::size_t requests = 0;
  std::size_t http_successes = 0;  ///< HTTP 200 (the paper's "successful")
  std::size_t usable_responses = 0;

  // §5.2 failure-cause taxonomy.
  std::size_t dns_failures = 0;
  std::size_t tcp_failures = 0;
  std::size_t http_errors = 0;  ///< non-200 status codes
  std::size_t tls_failures = 0;

  util::OnlineStats certs_per_response;
  util::OnlineStats serials_per_response;
  util::OnlineStats validity_seconds;  ///< finite validity samples
  std::size_t blank_next_update = 0;   ///< samples with no nextUpdate
  std::size_t validity_samples = 0;
  util::OnlineStats margin_seconds;  ///< T_received - thisUpdate
  std::size_t future_this_update = 0;
  std::size_t expired_next_update = 0;

  // producedAt tracking for the §5.4 on-demand/pre-generated analysis.
  std::int64_t last_produced_at = INT64_MIN;
  std::int64_t last_observed_at = INT64_MIN;
  util::OnlineStats produced_at_deltas;  ///< between consecutive DISTINCT values
  std::size_t produced_regressions = 0;  ///< producedAt went backwards
  std::size_t cached_observations = 0;   ///< received - producedAt > 2 min
};

/// One scan step's cross-region failure/validity tallies.
struct StepTotals {
  util::SimTime when{};
  std::array<std::size_t, net::kRegionCount> requests{};
  std::array<std::size_t, net::kRegionCount> successes{};
  std::array<std::size_t, net::kRegionCount> domains_unable{};
  // Fig 5 numerators (over HTTP-200 responses, all regions pooled).
  std::size_t responses_200 = 0;
  std::size_t unparseable = 0;
  std::size_t serial_mismatch = 0;
  std::size_t bad_signature = 0;
};

class HourlyScanner {
 public:
  HourlyScanner(Ecosystem& ecosystem, ScanConfig config);
  /// Releases the check memo's bytes from "scan.validation_cache".
  ~HourlyScanner();
  HourlyScanner(const HourlyScanner&) = delete;
  HourlyScanner& operator=(const HourlyScanner&) = delete;

  /// Runs the full campaign. Idempotent guard: second call throws.
  void run();

  const std::vector<StepTotals>& steps() const { return steps_; }
  const ResponderRegionStats& stats(std::size_t responder,
                                    net::Region region) const {
    return stats_[responder * net::kRegionCount +
                  static_cast<std::size_t>(region)];
  }
  std::size_t responder_count() const { return ecosystem_->responders().size(); }

  // ---- derived results (valid after run()) ----

  /// Responders with >=1 outage from >=1 vantage point: at least one failed
  /// request AND at least one success (so persistent dead hosts don't count
  /// as "outage" — they are the never-reachable class).
  std::size_t responders_with_outage() const;
  /// Responders never reachable from ANY vantage point.
  std::size_t responders_never_reachable() const;
  /// Responders unreachable from at least one region for the whole campaign
  /// (while reachable from others).
  std::size_t responders_region_persistent_fail() const;

  /// §5.2's persistent-failure census: responders for which at least one
  /// region NEVER succeeded, counted by the dominant failure cause there.
  /// Paper: 16 DNS (NXDOMAIN), 4 TCP, 8 HTTP 4xx/5xx, 1 invalid HTTPS cert.
  struct FailureTaxonomy {
    std::size_t dns = 0;
    std::size_t tcp = 0;
    std::size_t http = 0;
    std::size_t tls = 0;
  };
  FailureTaxonomy persistent_failure_taxonomy() const;

  /// Fig 6/7/8/9 CDFs: per-responder averages from one region's stats.
  util::Cdf cdf_certs(net::Region region) const;
  util::Cdf cdf_serials(net::Region region) const;
  /// Validity-period CDF; blank nextUpdate becomes +infinity mass.
  util::Cdf cdf_validity(net::Region region) const;
  util::Cdf cdf_margin(net::Region region) const;

  /// §5.4 producedAt analysis: responders detected as serving cached
  /// (pre-generated) responses; and among those, responders whose estimated
  /// update period >= their validity period ("non-overlapping" hazard).
  std::size_t responders_pre_generated() const;
  std::size_t responders_non_overlapping() const;

  /// Overall request failure rate per region (Fig 3 headline: 1.7% average,
  /// ranging ~2.2% Virginia to ~5.7% Sao Paulo).
  double failure_rate(net::Region region) const;

  /// Aggregated lint findings over every HTTP-200 body of the campaign
  /// (empty when lint_responses or validate_responses is off). Per-probe
  /// lint mirrors the validator's classification, so
  /// count("e_ocsp_unparseable") == sum of StepTotals::unparseable, and
  /// likewise for serial-mismatch and bad-signature (asserted in tests).
  const lint::LintReport& lint_report() const { return lint_report_; }

  // ---- check-memo statistics (tests, mustaple_bench, health checks) ----
  //
  // A validated probe is one lookup; it hits when its body is byte-equal to
  // the last one checked for its target. The counts are taken in
  // accumulate_probe from each slot's hit flag, so the hit/miss split is a
  // campaign output, identical at every thread count, and misses count the
  // verify calls. Only lookups, hits and misses are filled in.
  util::ShardedCacheStats validation_cache_stats() const;
  /// With lint on, every validated body is linted from the same memo, so
  /// these equal validation_cache_stats(); all zero with lint off.
  util::ShardedCacheStats lint_cache_stats() const;

  // ---- live progress (introspection server's /statusz) ----
  //
  // Written only by the coordinating thread at step barriers / accumulation,
  // but READ concurrently by the serving thread mid-campaign, so they are
  // relaxed atomics rather than the plain members the campaign outputs use.
  struct Progress {
    std::uint64_t steps_done = 0;
    std::uint64_t steps_planned = 0;  ///< 0 until run() starts
    std::uint64_t probes_done = 0;
    std::uint64_t targets = 0;
  };
  Progress progress() const {
    Progress p;
    p.steps_done = steps_done_.load(std::memory_order_relaxed);
    p.steps_planned = steps_planned_.load(std::memory_order_relaxed);
    p.probes_done = probes_done_.load(std::memory_order_relaxed);
    p.targets = targets_.size();
    return p;
  }

 private:
  struct Target {
    ocsp::CertId cert_id;
    std::size_t responder_index = 0;
    std::size_t ca_index = 0;
    /// The OCSP POST to the certificate's AIA URL, prepared once and shared
    /// read-only by every probe of the campaign; its body is the
    /// OCSPRequest DER.
    net::WireRequest request;
  };

  /// The last HTTP-200 body checked for one target and what checking it
  /// produced. The checks' other inputs (the requested CertID, the issuer
  /// key, the responder host) are fixed per target, so a byte-equal body
  /// has the same static verdict and the same clock-free findings.
  struct CheckMemo {
    std::optional<util::Bytes> body;  ///< nullopt until the first check
    ocsp::VerifiedResponse verdict{};  ///< before the time checks
    /// Null when lint is off. Shared with the step's outcome slots, which
    /// keep their findings when a later region's probe replaces the entry.
    std::shared_ptr<const std::vector<lint::Finding>> findings;
    std::size_t charged_bytes = 0;  ///< charged to "scan.validation_cache"
  };

  /// What one probe's pure (order-independent) work produced: the fetch
  /// result without its body and headers plus, when validation is on, the
  /// time-checked verdict and whether the target's memo already held the
  /// body.
  struct ProbeOutcome {
    net::FetchResult result;
    ocsp::VerifiedResponse verdict{};
    bool validated = false;
    bool memo_hit = false;
    std::shared_ptr<const std::vector<lint::Finding>> findings;
  };

  // The fan-out is two-phase so output is independent of thread count:
  // execute_probe does the order-free work (fetch + validation) on any
  // worker, writing into an outcome slot indexed by canonical probe order;
  // accumulate_probe then replays every order-SENSITIVE effect (stat
  // accumulators with float sums, metrics, trace events) on the
  // coordinating thread, walking the slots in canonical order. One thread
  // and N threads run the exact same two phases. A target's probes of one
  // step all run on one worker, in region order, so its memo entry has one
  // writer at a time.
  ProbeOutcome execute_probe(std::size_t target_index, net::Region region,
                             std::uint64_t ordinal);
  /// Verifies (and lints, when on) a body the target's memo does not hold,
  /// and makes it the memo's body.
  void check_body(const Target& target, CheckMemo& memo, util::Bytes body);
  void accumulate_probe(const Target& target, net::Region region,
                        const ProbeOutcome& outcome, StepTotals& totals);

  Ecosystem* ecosystem_;
  ScanConfig config_;
  std::vector<Target> targets_;
  /// Parallel to targets_; empty when validation is off.
  std::vector<CheckMemo> memo_;
  std::vector<ResponderRegionStats> stats_;
  std::vector<StepTotals> steps_;
  // Step-local (responder x region) tallies for the Fig 4 impact series.
  std::vector<std::size_t> step_requests_;
  std::vector<std::size_t> step_successes_;
  // Check-memo hits and misses: written by the coordinating thread, read
  // by health checks mid-campaign, hence relaxed atomics.
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> memo_misses_{0};
  lint::LintReport lint_report_;
  // Trace identity: each scan step gets a trace id, each probe a
  // campaign-wide ordinal. The ordinal also keys the counter-based latency
  // sample, so it is maintained even when obs is compiled out.
  std::uint64_t step_trace_id_ = 0;
  std::uint64_t probe_counter_ = 0;
  bool ran_ = false;
  std::atomic<std::uint64_t> steps_done_{0};
  std::atomic<std::uint64_t> steps_planned_{0};
  std::atomic<std::uint64_t> probes_done_{0};
  /// Bytes charged for targets_ (the structs and the heap storage of their
  /// CertIDs and prepared requests) under the "scan.targets" counter;
  /// released on destruction.
  util::AllocTally targets_tally_;
  /// Charged by workers as they replace memo entries, so it is the counter
  /// itself rather than a tally; the destructor releases what is resident.
  util::AllocCounter* memo_counter_;
};

}  // namespace mustaple::measurement
