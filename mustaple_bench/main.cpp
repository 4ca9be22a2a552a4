// mustaple_bench: the end-to-end benchmark driver. One process runs one
// workload and prints, as the last line of stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with every end-to-end metric (untraced run) or every per-layer metric
// (--trace 1), each as {"value": v, "unit": u}. Progress and a readable
// summary go to stderr.
//
//   mustaple_bench --workload <name> --seed <n> [--seconds S] [--trace 0|1]
//                  [--trace-out trace.json] [--json record.json]
//                  [--threads N] [--toy]
//
// Workloads: campaign_paper, campaign_availability, serve_cached,
// serve_sign (see README.md). The seed drives every generated input; the
// program under test only ever sees those inputs. Exit status is 0 when
// every check passed and no operation failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/config.hpp"

namespace {

using namespace mustaple::bench;

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"}, {"ops_per_s", "1/s"},    {"cpu_us_per_op", "us"},
    {"p50_us", "us"}, {"peak_rss_mb", "MiB"},
};

/// Every per-layer metric, as BENCHMARK.json lists them.
constexpr MetricName kPerLayer[] = {
    {"measurement.ecosystem_build_s", "s"},
    {"measurement.scanner_build_s", "s"},
    {"measurement.fanout_wall_s", "s"},
    {"measurement.probe_cpu_s", "s"},
    {"measurement.accumulate_s", "s"},
    {"measurement.step_self_s", "s"},
    {"measurement.parallel_efficiency", "ratio"},
    {"measurement.attributed_share", "ratio"},
    {"net.probe_us", "us"},
    {"net.http_parse_us", "us"},
    {"net.http_serialize_us", "us"},
    {"ocsp.request_parse_us", "us"},
    {"ocsp.get_path_parse_us", "us"},
    {"ca.build_response_us", "us"},
    {"crypto.sign_us", "us"},
    {"crypto.sha256_us", "us"},
    {"crypto.sha256_calls", "count"},
    {"ocsp.verify_static_us", "us"},
    {"ocsp.verify_static_calls", "count"},
    {"ocsp.time_checks_us", "us"},
    {"lint.lint_us", "us"},
    {"lint.lint_calls", "count"},
    {"net.wire_cache.hit_us", "us"},
    {"util.validation_cache.hit_ratio", "ratio"},
    {"util.lint_cache.hit_ratio", "ratio"},
    {"util.alloc.ecosystem.population.peak_mb", "MiB"},
    {"util.alloc.scan.targets.peak_mb", "MiB"},
    {"util.alloc.scan.validation_cache.peak_mb", "MiB"},
    {"util.alloc.scan.lint_cache.peak_mb", "MiB"},
    {"util.alloc.ca.response_cache.peak_mb", "MiB"},
    {"ca.handler_us.p50", "us"},
    {"ca.handler_us.p99", "us"},
    {"ca.lock_wait_us", "us"},
    {"net.socket_us_per_req", "us"},
    {"net.wire_cache.hit_ratio", "ratio"},
    {"net.server.requests", "count"},
    {"net.server.connections", "count"},
    {"net.server.bytes_in_per_req", "B"},
    {"net.server.bytes_out_per_req", "B"},
    {"net.server.responses_4xx", "count"},
    {"latency.p99_us", "us"},
    {"latency.p999_us", "us"},
    {"latency.max_us", "us"},
    {"latency.samples", "count"},
    {"gen.lag_p99_us", "us"},
    {"gen.cpu_us_per_req", "us"},
    {"trace.overhead_pct", "%"},
};

/// Metrics read from obs::Profiler phases, which OBS=OFF compiles out.
bool from_profiler(const std::string& name) {
  return name == "measurement.fanout_wall_s" ||
         name == "measurement.probe_cpu_s" ||
         name == "measurement.accumulate_s" ||
         name == "measurement.step_self_s" ||
         name == "measurement.parallel_efficiency" ||
         name == "measurement.attributed_share";
}

/// Per-layer metrics of layers `workload` never enters, which its traced
/// run reports as 0: the socket server and load generator on a campaign;
/// the scanner, its caches and its call counts on a serving workload, and
/// the wire cache on serve_sign. Every other per-layer metric must be
/// measured.
bool never_entered(const std::string& workload, const std::string& name) {
  if (is_campaign(workload)) {
    return name.starts_with("net.server.") || name.starts_with("gen.") ||
           name == "net.socket_us_per_req" ||
           name == "net.wire_cache.hit_ratio";
  }
  return name.starts_with("measurement.") ||
         name == "util.validation_cache.hit_ratio" ||
         name == "util.lint_cache.hit_ratio" || name.ends_with("_calls") ||
         (workload == "serve_sign" && name == "net.wire_cache.hit_ratio");
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <campaign_paper|campaign_availability|"
               "serve_cached|serve_sign> --seed <n> [--seconds S] "
               "[--trace 0|1] [--trace-out path] [--json path] [--threads N] "
               "[--toy]\n",
               argv0);
  std::exit(2);
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const Report& report) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + number(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}";
}

std::string detail_json(const Report& report) {
  std::string out;
  for (const auto& [name, value] : report.detail) {
    if (!out.empty()) out += ", ";
    out += json_string(name) + ": " + value;
  }
  return out;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs(text.c_str(), f);
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string json_path;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--threads") {
      options.threads = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--toy") {
      options.toy = true;
    } else {
      usage(argv[0]);
    }
  }
  const bool campaign = is_campaign(options.workload);
  if ((!campaign && !is_serving(options.workload)) || !have_seed ||
      !(options.seconds > 0) || options.threads < 1) {
    usage(argv[0]);
  }
  if (options.trace && options.trace_out.empty()) {
    options.trace_out = "mustaple_bench-trace-" + options.workload + ".json";
  }

  std::fprintf(stderr, "mustaple_bench: %s seed=%llu seconds=%g trace=%d%s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0, options.toy ? " toy" : "");
  Report report;
  TraceWriter trace;
  trace.name_track(kDriverTrack, "driver");
  trace.name_track(kReplayTrack, "replay");
  try {
    if (campaign) {
      trace.name_track(kStepTrack, "scan steps");
      run_campaign(options, report, trace);
    } else {
      for (int t = 0; t < 2; ++t) {
        trace.name_track(kClientTrackBase + t, "client " + std::to_string(t));
        trace.name_track(kServerTrackBase + t,
                         "server worker " + std::to_string(t));
      }
      run_serving(options, report, trace);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mustaple_bench: %s\n", error.what());
    return 2;
  }

  if (options.trace) {
    for (const MetricName& m : kPerLayer) {
      if (!MUSTAPLE_OBS_ENABLED && from_profiler(m.name)) continue;
      const bool measured = report.metrics.count(m.name) == 1;
      if (never_entered(options.workload, m.name)) {
        report.check(!measured, std::string("layer not entered: ") + m.name);
        report.metric(m.name, 0.0, m.unit);
      } else {
        report.check(measured, std::string("per-layer metric measured: ") +
                                   m.name);
      }
    }
  } else {
    for (const MetricName& m : kEndToEnd) {
      report.check(report.metrics.count(m.name) == 1,
                   std::string("end-to-end metric reported: ") + m.name);
    }
  }
  for (auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      report.check(false, "finite value for " + name);
      metric.value = 0.0;
    }
  }
  if (!report.correct) report.failed = report.attempted;

  for (const auto& [name, metric] : report.metrics) {
    std::fprintf(stderr, "  %-42s %16.6g %s\n", name.c_str(), metric.value,
                 metric.unit.c_str());
  }
  for (const auto& [name, value] : report.detail) {
    std::fprintf(stderr, "  (%s %s)\n", name.c_str(), value.c_str());
  }
  std::fprintf(stderr, "  attempted %llu, failed %llu, %s\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               report.correct ? "all checks passed" : "CHECKS FAILED");

  const std::string config =
      "\"workload\": " + json_string(options.workload) +
      ", \"seed\": " + std::to_string(options.seed) +
      ", \"seconds\": " + number(options.seconds) +
      ", \"trace\": " + (options.trace ? "true" : "false") +
      ", \"toy\": " + (options.toy ? "true" : "false") +
      ", \"threads\": " + std::to_string(options.threads) +
      ", \"obs\": " + (MUSTAPLE_OBS_ENABLED ? "true" : "false");
  if (options.trace &&
      !trace.write(options.trace_out,
                   config + ", \"metrics\": " + metrics_json(report) +
                       ", \"detail\": {" + detail_json(report) + "}")) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    return 2;
  }
  const std::string result =
      std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) +
      ", \"metrics\": " + metrics_json(report) + "}";
  if (!json_path.empty() &&
      !write_file(json_path, "{" + config + ", \"detail\": {" +
                                 detail_json(report) + "}, \"result\": " +
                                 result + "}\n")) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }
  std::printf("%s\n", result.c_str());
  return report.correct && report.failed == 0 ? 0 : 1;
}
