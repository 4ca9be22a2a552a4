// Integration tests for the campaign timeline: the per-window availability
// recomputed from timeline counter deltas must agree exactly with the
// scanner's own StepTotals (the Figure 3 pipeline), and a default-config
// study must emit the timeline.csv / trace.json artifacts.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/study.hpp"
#include "measurement/ecosystem.hpp"
#include "measurement/scanner.hpp"
#include "net/event_loop.hpp"
#include "obs/obs.hpp"

namespace mustaple {
namespace {

measurement::EcosystemConfig tiny_ecosystem() {
  measurement::EcosystemConfig config;
  config.seed = 5;
  config.responder_count = 60;
  config.alexa_domains = 3000;
  config.certs_per_responder = 1;
  config.campaign_start = util::make_time(2018, 4, 25);
  config.campaign_end = util::make_time(2018, 4, 30);
  return config;
}

#if MUSTAPLE_OBS_ENABLED

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Timeline, AvailabilityMatchesScannerSteps) {
  measurement::EcosystemConfig config = tiny_ecosystem();
  measurement::ScanConfig scan;
  scan.interval = util::Duration::hours(6);
  scan.validate_responses = false;

  net::EventLoop loop(config.campaign_start - util::Duration::days(1));
  measurement::Ecosystem ecosystem(config, loop);
  measurement::HourlyScanner scanner(ecosystem, scan);

  // One timeline window per scan step, aligned to the campaign start.
  obs::Timeline timeline(config.campaign_start, scan.interval);
  obs::Timeline* previous = obs::install_timeline(&timeline);
  scanner.run();
  timeline.flush(config.campaign_end);  // close the final step's window
  obs::install_timeline(previous);

  ASSERT_FALSE(scanner.steps().empty());
  for (net::Region region : net::all_regions()) {
    const std::size_t g = static_cast<std::size_t>(region);
    const util::Series requests = timeline.series(
        "mustaple_scan_requests_total", {{"region", net::to_string(region)}});
    const util::Series availability = timeline.ratio_series(
        "mustaple_scan_successes_total", "mustaple_scan_requests_total",
        {{"region", net::to_string(region)}});

    // Expected series straight from the scanner's own per-step tallies.
    std::size_t i = 0;
    for (const auto& step : scanner.steps()) {
      if (step.requests[g] == 0) continue;
      ASSERT_LT(i, availability.x.size()) << net::to_string(region);
      EXPECT_DOUBLE_EQ(availability.x[i],
                       static_cast<double>(step.when.unix_seconds));
      EXPECT_DOUBLE_EQ(availability.y[i],
                       100.0 * static_cast<double>(step.successes[g]) /
                           static_cast<double>(step.requests[g]));
      EXPECT_DOUBLE_EQ(requests.y[i],
                       static_cast<double>(step.requests[g]));
      ++i;
    }
    EXPECT_EQ(i, availability.x.size()) << net::to_string(region);
  }
}

TEST(Timeline, StudyEmitsTimelineAndTraceArtifacts) {
  const std::string dir = ::testing::TempDir();
  core::StudyConfig config;
  config.ecosystem = tiny_ecosystem();
  config.scan.interval = util::Duration::hours(12);
  config.scan.validate_responses = false;
  config.run_consistency_audit = false;
  config.run_browser_suite = false;
  config.run_webserver_suite = false;
  config.timeline_window = util::Duration::hours(12);
  config.artifact_dir = dir;
  core::MustStapleStudy study(config);
  const core::ReadinessReport report = study.run();

  // The readiness report carries the sim-time availability sparkline.
  EXPECT_NE(report.timeline_summary.find("Timeline:"), std::string::npos);
  EXPECT_NE(report.render().find("Timeline:"), std::string::npos);

  const std::string csv = slurp(dir + "/timeline.csv");
  EXPECT_EQ(csv.rfind("window_start_unix,window_start,window_end_unix,kind,"
                      "metric,labels,value\n",
                      0),
            0u);
  EXPECT_NE(csv.find("mustaple_scan_requests_total"), std::string::npos);

  const std::string timeline_json = slurp(dir + "/timeline.json");
  EXPECT_EQ(timeline_json.rfind("{\"window_seconds\":43200,", 0), 0u);

  // Chrome trace-event array format: starts with '[', contains the process
  // metadata record and at least one vantage-track event.
  const std::string trace = slurp(dir + "/trace.json");
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '[');
  EXPECT_EQ(trace.substr(trace.size() - 2), "]\n");
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
  EXPECT_NE(trace.find("\"vantage:Oregon\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  std::remove((dir + "/timeline.csv").c_str());
  std::remove((dir + "/timeline.json").c_str());
  std::remove((dir + "/trace.json").c_str());
}

#else  // MUSTAPLE_OBS_OFF

TEST(Timeline, StudyRunsWithObsCompiledOut) {
  core::StudyConfig config;
  config.ecosystem = tiny_ecosystem();
  config.scan.interval = util::Duration::hours(24);
  config.scan.validate_responses = false;
  config.run_consistency_audit = false;
  config.run_browser_suite = false;
  config.run_webserver_suite = false;
  core::MustStapleStudy study(config);
  const core::ReadinessReport report = study.run();
  EXPECT_TRUE(report.timeline_summary.empty());
  EXPECT_TRUE(report.profile_summary.empty());
  EXPECT_FALSE(report.render().empty());
}

#endif  // MUSTAPLE_OBS_ENABLED

}  // namespace
}  // namespace mustaple
