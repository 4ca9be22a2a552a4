// Public façade: run the paper's whole study — CA availability/quality
// scans, the CRL/OCSP consistency audit, the browser suite, and the
// web-server suite — against one seeded synthetic ecosystem, and render a
// readiness report answering the title question.
//
// Quickstart:
//   mustaple::core::StudyConfig config;      // defaults are scaled-down
//   mustaple::core::MustStapleStudy study(config);
//   mustaple::core::ReadinessReport report = study.run();
//   std::cout << report.render();
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "analysis/adoption.hpp"
#include "analysis/browser_suite.hpp"
#include "analysis/webserver_suite.hpp"
#include "lint/lint.hpp"
#include "measurement/consistency.hpp"
#include "measurement/ecosystem.hpp"
#include "measurement/scanner.hpp"
#include "obs/health.hpp"
#include "obs/introspect.hpp"
#include "obs/resource.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mustaple::core {

struct StudyConfig {
  measurement::EcosystemConfig ecosystem;
  measurement::ScanConfig scan;
  measurement::ConsistencyConfig consistency;
  bool run_availability_scan = true;
  bool run_consistency_audit = true;
  bool run_browser_suite = true;
  bool run_webserver_suite = true;

  // Observability (ignored when the obs layer is compiled out).
  /// Window of the sim-time series artifact (timeline.csv / timeline.json).
  util::Duration timeline_window = util::Duration::days(1);
  /// Directory the run's artifacts (timeline.csv, timeline.json,
  /// trace.json) are written to; empty disables artifact writing.
  std::string artifact_dir = ".";
  /// Trace events kept before further ones are counted as dropped.
  std::size_t trace_capacity = 200'000;
  /// Resource-monitor sampling cadence on the wall clock; 0 disables the
  /// background sampler (a single end-of-run sample is still taken so the
  /// report can state peak RSS).
  std::uint64_t resource_tick_ms = 100;
  /// Write profile.json / profile.folded / resources.csv / resources.json
  /// next to the other artifacts (obs builds only).
  bool profile_artifacts = true;
  /// Serve /metrics, /healthz, /statusz on 127.0.0.1:<port> for the run's
  /// duration (0 = kernel-assigned ephemeral port, read back via
  /// MustStapleStudy::introspection_port()). -1 disables the server.
  int introspection_port = -1;

  // Pillar 8: health + flight recorder (obs builds only).
  /// Register and evaluate the default invariant checks + SLO rules; the
  /// results land in health.json and drive /healthz. Off = the monitor
  /// still exists (callers may register their own checks) but the study
  /// registers nothing.
  bool health_checks = true;
  /// Critical health breach when current RSS exceeds this budget; 0 = no
  /// RSS check (the ROADMAP full-scale item supplies a real bound).
  std::uint64_t rss_budget_mb = 0;
  /// Warning-severity breach when the campaign-wide scan error rate (failed
  /// requests / requests) exceeds this percentage.
  double probe_error_warn_pct = 25.0;
  /// SLO: responder availability (scan successes/requests) must stay at or
  /// above this percentage over 1x and 6x `timeline_window` of sim time.
  /// The paper's Fig-3 worlds dip to ~94% regionally; 90 keeps the default
  /// seeded world green while real outages (or attack scenarios) breach.
  double slo_availability_target_pct = 90.0;
  /// Capacity of the flight recorder's event ring (>=warn log records,
  /// phase transitions, health transitions). 0 disables the recorder —
  /// no signal handlers installed, no postmortem artifacts.
  std::size_t flight_recorder_events = 1024;
  /// CI hook: std::abort() on the first critical health breach, which the
  /// flight recorder's SIGABRT handler turns into postmortem.{txt,json}.
  bool abort_on_critical = false;
};

/// Verdict per principal, in the structure of the paper's §8 conclusion.
struct PrincipalVerdict {
  std::string principal;
  bool ready = false;
  std::string evidence;
};

struct ReadinessReport {
  measurement::Ecosystem::DeploymentStats deployment;

  // CA principal (§5).
  double average_failure_rate = 0.0;
  std::size_t responders_total = 0;
  std::size_t responders_with_outage = 0;
  std::size_t responders_never_reachable = 0;
  std::size_t consistency_discrepant_responders = 0;

  // Client principal (§6).
  std::size_t browsers_tested = 0;
  std::size_t browsers_requesting = 0;
  std::size_t browsers_respecting = 0;

  // Server principal (§7).
  std::size_t servers_tested = 0;
  std::size_t servers_fully_correct = 0;

  std::vector<PrincipalVerdict> verdicts;
  bool web_is_ready = false;

  /// Merged lint findings from the availability scan (per-probe response
  /// lint) and the consistency audit (CRL + cross-check lint). Also written
  /// to <artifact_dir>/lint_report.json — unconditionally, lint is not part
  /// of the obs layer.
  lint::LintReport lint;

  /// Sim-time availability sparkline derived from the campaign timeline;
  /// empty when the obs layer is compiled out or no scan ran.
  std::string timeline_summary;

  /// Health roll-up (pillar 8): overall status plus per-check/SLO lines;
  /// empty when the obs layer is compiled out or health_checks is off.
  std::string health_summary;

  /// Peak RSS / CPU split / per-subsystem allocation totals (pillar 6);
  /// empty when the obs layer is compiled out.
  std::string resource_summary;

  /// Top phases by wall time from the annotation profiler (pillar 6);
  /// empty when the obs layer is compiled out.
  std::string profile_summary;

  /// Multi-line human-readable report.
  std::string render() const;
};

class MustStapleStudy {
 public:
  explicit MustStapleStudy(StudyConfig config);

  /// Runs all enabled study components and synthesizes the report.
  ReadinessReport run();

  /// Access to the underlying world (for extended analyses).
  measurement::Ecosystem& ecosystem() { return *ecosystem_; }

  /// The run's health monitor: callers may add_check/add_slo before run().
  /// Always present; the study only REGISTERS its default rules when
  /// config.health_checks is on (obs builds).
  obs::HealthMonitor& health() { return health_; }

  /// Binds and starts the introspection server ahead of run() so callers
  /// can print the endpoint before the campaign begins (no-op unless
  /// config.introspection_port >= 0; idempotent). Returns the bound port,
  /// 0 when disabled or bind failed. The server keeps serving the final
  /// state after run() returns, until the study is destroyed.
  std::uint16_t start_introspection();
  std::uint16_t introspection_port() const {
    return server_ ? server_->port() : 0;
  }

 private:
  std::string render_status() const;  ///< /statusz campaign section
  void register_default_health_rules();
  /// Re-renders the metrics/alloc/profile snapshot the crash handler embeds
  /// in postmortem.json (normal-context; called on each resource tick).
  void update_flight_snapshot();

  StudyConfig config_;
  net::EventLoop loop_;
  std::unique_ptr<measurement::Ecosystem> ecosystem_;
  /// Own registry (never the process default): wall-clock RSS gauges must
  /// stay out of the bit-identical campaign artifacts (obs/resource.hpp).
  std::unique_ptr<obs::ResourceMonitor> monitor_;
  std::unique_ptr<obs::IntrospectionServer> server_;
  obs::HealthMonitor health_;
  /// The live scanner /statusz reads mid-campaign; guarded because the
  /// serving thread races the scanner's construction/destruction. The
  /// POINTER is guarded (swap/read); the scanner object itself has its own
  /// internal discipline.
  mutable util::Mutex scanner_mu_;
  measurement::HourlyScanner* live_scanner_ MUSTAPLE_GUARDED_BY(scanner_mu_) =
      nullptr;
};

}  // namespace mustaple::core
