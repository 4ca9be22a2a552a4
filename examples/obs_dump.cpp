// Observability tour: run a scaled-down readiness study with the full obs
// stack wired up — structured JSONL event log (sim-time AND wall-time on
// every record), Prometheus-text + JSON metrics dumps, the campaign
// timeline (windowed sim-time series) as CSV/JSON, a Perfetto-loadable
// Chrome trace, the annotation profiler's phase tree (JSON + collapsed
// stacks for flamegraph.pl / speedscope), the resource-monitor timeline
// (RSS, CPU, per-subsystem allocation), and the resource/profile summaries
// appended to the readiness report.
//
// Build & run:  cmake -B build && cmake --build build -j
//               ./build/examples/obs_dump [outdir]
// Writes <outdir>/study.jsonl, <outdir>/metrics.prom, <outdir>/metrics.json,
// <outdir>/timeline.csv, <outdir>/timeline.json, <outdir>/trace.json,
// <outdir>/profile.json, <outdir>/profile.folded, <outdir>/resources.csv,
// <outdir>/resources.json (outdir defaults to "."). Open trace.json at
// ui.perfetto.dev; feed profile.folded to flamegraph.pl.
#include <cstdio>
#include <fstream>
#include <memory>

#include "core/study.hpp"
#include "obs/obs.hpp"

using namespace mustaple;

int main(int argc, char** argv) {
#if !MUSTAPLE_OBS_ENABLED
  // With the obs layer compiled out the study still runs — every macro and
  // artifact write compiles to nothing. Exit 0 so CI can assert exactly that.
  (void)argc;
  (void)argv;
  core::StudyConfig config;
  config.ecosystem.seed = 7;
  config.ecosystem.responder_count = 120;
  config.ecosystem.alexa_domains = 10'000;
  config.ecosystem.certs_per_responder = 1;
  config.ecosystem.campaign_end =
      config.ecosystem.campaign_start + util::Duration::days(14);
  core::MustStapleStudy study(config);
  const core::ReadinessReport report = study.run();
  std::printf("%s", report.render().c_str());
  std::printf(
      "\nobs_dump was built with MUSTAPLE_OBS_OFF: the study above ran with "
      "zero instrumentation;\nrebuild with -DMUSTAPLE_OBS=ON for the logs, "
      "metrics, timeline, and trace artifacts.\n");
  return 0;
#else
  const std::string outdir = argc > 1 ? argv[1] : ".";
  const std::string jsonl_path = outdir + "/study.jsonl";

  // Wire the default logger: structured JSONL to disk, debug level so the
  // per-step scan records land too.
  obs::Logger& logger = obs::default_logger();
  logger.set_level(obs::Level::kDebug);
  auto jsonl = std::make_shared<obs::JsonlFileSink>(jsonl_path);
  if (!jsonl->ok()) {
    std::fprintf(stderr, "cannot open %s for writing\n", jsonl_path.c_str());
    return 1;
  }
  logger.add_sink(jsonl);

  // A small campaign: ~2 weeks at 12h cadence keeps this example snappy.
  core::StudyConfig config;
  config.ecosystem.seed = 7;
  config.ecosystem.responder_count = 120;
  config.ecosystem.alexa_domains = 10'000;
  config.ecosystem.certs_per_responder = 1;
  config.ecosystem.campaign_end =
      config.ecosystem.campaign_start + util::Duration::days(14);
  // The study writes timeline.csv / timeline.json / trace.json here itself.
  config.artifact_dir = outdir;
  config.timeline_window = util::Duration::hours(12);

  core::MustStapleStudy study(config);
  const core::ReadinessReport report = study.run();
  std::printf("%s", report.render().c_str());

  // Export the metrics the run accumulated.
  const std::string prom = obs::default_registry().render_prometheus();
  std::ofstream(outdir + "/metrics.prom") << prom;
  std::ofstream(outdir + "/metrics.json")
      << obs::default_registry().render_json() << "\n";

  std::printf(
      "\nwrote %s, %s/metrics.prom, %s/metrics.json,\n"
      "      %s/timeline.csv, %s/timeline.json, %s/trace.json "
      "(open in ui.perfetto.dev),\n"
      "      %s/profile.json, %s/profile.folded (feed to flamegraph.pl),\n"
      "      %s/resources.csv, %s/resources.json\n",
      jsonl_path.c_str(), outdir.c_str(), outdir.c_str(), outdir.c_str(),
      outdir.c_str(), outdir.c_str(), outdir.c_str(), outdir.c_str(),
      outdir.c_str(), outdir.c_str());
  std::printf("key counters:\n");
  for (const char* name :
       {"mustaple_net_fetch_total", "mustaple_loop_events_dispatched_total",
        "mustaple_scan_probes_total", "mustaple_scan_probes_usable_total",
        "mustaple_ca_ocsp_requests_total",
        "mustaple_ca_ocsp_cache_hits_total"}) {
    std::printf("  %-42s %llu\n", name,
                static_cast<unsigned long long>(
                    obs::default_registry().counter_value(name)));
  }
  logger.clear_sinks();
  return 0;
#endif
}
