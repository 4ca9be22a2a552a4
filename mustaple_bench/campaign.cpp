// The two measurement-campaign workloads. Both run the paper's §5 scanner
// (HourlyScanner over a generated Ecosystem) but stress different layers:
//
//   campaign_paper         the paper's population (~13.5k certificates) in
//                          few, large steps with validation and lint on, so
//                          SHA-256, static verification, lint and the
//                          sharded caches do real work and dominate RSS.
//   campaign_availability  the Fig-3 world (one certificate per responder)
//                          over the whole Apr 25 - Sep 4 window in many thin
//                          steps with validation off: the simulated network,
//                          event loop, fault schedule and per-step
//                          barrier/accumulate dominate, and response
//                          checking does nothing.
//
// A run repeats {build Ecosystem + HourlyScanner, scanner.run()} until the
// measured scan time reaches --seconds; every repetition is checked.
#include <memory>
#include <span>
#include <thread>

#include "bench.hpp"
#include "common.hpp"
#include "measurement/ecosystem.hpp"
#include "measurement/scanner.hpp"
#include "obs/prof.hpp"
#include "ocsp/request.hpp"
#include "replay.hpp"
#include "util/alloc.hpp"
#include "util/hash.hpp"

namespace mustaple::bench {

namespace {

using measurement::Ecosystem;
using measurement::EcosystemConfig;
using measurement::HourlyScanner;
using measurement::ScanConfig;

struct CampaignSpec {
  EcosystemConfig ecosystem;
  ScanConfig scan;
  /// campaign_fingerprint at seed 2018; checked whenever that seed runs.
  std::uint64_t golden = 0;
};

CampaignSpec campaign_spec(const Options& options) {
  CampaignSpec spec;
  // The population and window every bench/ campaign starts from.
  spec.ecosystem = paper_ecosystem(options.seed);
  EcosystemConfig& eco = spec.ecosystem;
  if (options.toy) {
    eco.responder_count = 64;
    eco.alexa_domains = 5'000;
  }
  ScanConfig& scan = spec.scan;
  scan.threads = options.threads;
  if (options.workload == "campaign_paper") {
    eco.certs_per_responder = options.toy ? 4 : 50;
    scan.interval = util::Duration::hours(6);
    scan.max_steps = options.toy ? 3 : 4;
    scan.validate_responses = true;
    scan.lint_responses = true;
    spec.golden = options.toy ? 0x51dfa7614fa793feULL : 0x56cba4d6f66eeb29ULL;
  } else {
    eco.certs_per_responder = 1;
    scan.interval = util::Duration::hours(options.toy ? 72 : 24);
    scan.max_steps = options.toy ? 10 : 0;  // 0 = the whole window
    scan.validate_responses = false;
    scan.lint_responses = false;
    spec.golden = options.toy ? 0x13633aee70ca7a68ULL : 0x94b87cb665840600ULL;
  }
  return spec;
}

/// Folds every scanner output a figure reads (step totals, per-responder
/// stats, derived censuses, lint counts) into one value. It must not depend
/// on the scan thread count (DESIGN.md §7). The same fold as perf_suite's,
/// which keeps its copy private to perf_suite.cpp.
std::uint64_t campaign_fingerprint(const HourlyScanner& scanner) {
  std::uint64_t h = util::fnv1a64("campaign");
  auto fold = [&h](std::uint64_t v) {
    h = util::hash_combine(h, util::mix64(v));
  };
  for (const auto& step : scanner.steps()) {
    fold(static_cast<std::uint64_t>(step.when.unix_seconds));
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      fold(step.requests[g]);
      fold(step.successes[g]);
      fold(step.domains_unable[g]);
    }
    fold(step.responses_200);
    fold(step.unparseable);
    fold(step.serial_mismatch);
    fold(step.bad_signature);
  }
  for (std::size_t r = 0; r < scanner.responder_count(); ++r) {
    for (net::Region region : net::all_regions()) {
      const auto& s = scanner.stats(r, region);
      fold(s.requests);
      fold(s.http_successes);
      fold(s.usable_responses);
      fold(s.dns_failures + s.tcp_failures + s.http_errors + s.tls_failures);
      fold(s.produced_regressions);
      fold(s.cached_observations);
    }
  }
  fold(scanner.responders_with_outage());
  fold(scanner.responders_never_reachable());
  fold(scanner.responders_pre_generated());
  for (const auto& [rule, count] : scanner.lint_report().by_rule()) {
    h = util::hash_combine(h, util::fnv1a64(rule));
    fold(count);
  }
  return h;
}

/// One built world. The event loop must outlive the ecosystem.
struct World {
  std::unique_ptr<net::EventLoop> loop;
  std::unique_ptr<Ecosystem> ecosystem;
  std::unique_ptr<HourlyScanner> scanner;
  double ecosystem_s = 0.0;
  double scanner_s = 0.0;
};

World build_world(const CampaignSpec& spec, TraceWriter& trace) {
  World world;
  const std::uint64_t t0 = now_ns();
  world.loop = std::make_unique<net::EventLoop>(spec.ecosystem.campaign_start -
                                                util::Duration::days(1));
  world.ecosystem = std::make_unique<Ecosystem>(spec.ecosystem, *world.loop);
  const std::uint64_t t1 = now_ns();
  world.scanner = std::make_unique<HourlyScanner>(*world.ecosystem, spec.scan);
  const std::uint64_t t2 = now_ns();
  world.ecosystem_s = ns_to_s(static_cast<double>(t1 - t0));
  world.scanner_s = ns_to_s(static_cast<double>(t2 - t1));
  trace.span("setup.ecosystem", kDriverTrack, t0, t1);
  trace.span("setup.scanner", kDriverTrack, t1, t2);
  return world;
}

/// Samples HourlyScanner::progress() from its own thread to time each scan
/// step from outside the program. Steps last milliseconds to seconds, so a
/// 100 us poll resolves them to well under 1%.
class StepWatcher {
 public:
  explicit StepWatcher(const HourlyScanner& scanner)
      : scanner_(scanner), thread_([this] { loop(); }) {}
  StepWatcher(const StepWatcher&) = delete;
  StepWatcher& operator=(const StepWatcher&) = delete;
  ~StepWatcher() { stop(); }

  /// Joins the poller; afterwards boundaries() and cpu_ns() are stable.
  void stop() {
    if (!thread_.joinable()) return;
    done_.store(true, std::memory_order_release);
    thread_.join();
  }
  /// CLOCK_MONOTONIC instant at which each step was seen to finish.
  const std::vector<std::uint64_t>& boundaries() const { return boundaries_; }
  std::uint64_t cpu_ns() const { return cpu_ns_; }
  bool ok() const { return ok_; }

 private:
  void loop() {
    tighten_timer_slack();
    std::uint64_t seen = 0;
    auto poll = [&] {
      const std::uint64_t done = scanner_.progress().steps_done;
      if (done == seen) return;
      const std::uint64_t t = now_ns();
      for (; seen < done; ++seen) boundaries_.push_back(t);
    };
    try {
      while (!done_.load(std::memory_order_acquire)) {
        poll();
        sleep_until_ns(now_ns() + 100'000);
      }
      poll();
    } catch (const std::exception&) {
      ok_ = false;
    }
    cpu_ns_ = thread_cpu_ns();
  }

  const HourlyScanner& scanner_;
  std::atomic<bool> done_{false};
  std::vector<std::uint64_t> boundaries_;
  std::uint64_t cpu_ns_ = 0;
  bool ok_ = true;
  std::thread thread_;  // last: starts after the fields it uses
};

struct RepResult {
  std::uint64_t probes = 0;
  double run_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU during run(), poller excluded
  std::vector<double> step_us;
};

RepResult run_rep(World& world, Report& report, TraceWriter& trace) {
  RepResult rep;
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t t0 = now_ns();
  StepWatcher watcher(*world.scanner);
  world.scanner->run();
  const std::uint64_t t1 = now_ns();
  watcher.stop();
  report.check(watcher.ok() && watcher.boundaries().size() ==
                                   world.scanner->steps().size(),
               "every scan step timed");
  const std::uint64_t cpu1 = process_cpu_ns();
  rep.probes = world.scanner->progress().probes_done;
  rep.run_s = ns_to_s(static_cast<double>(t1 - t0));
  rep.cpu_s = ns_to_s(static_cast<double>(cpu1 - cpu0 - watcher.cpu_ns()));
  std::uint64_t prev = t0;
  for (std::uint64_t b : watcher.boundaries()) {
    const std::uint64_t end = std::min(b, t1);
    rep.step_us.push_back(ns_to_us(static_cast<double>(end - prev)));
    trace.span("scan.step", kStepTrack, prev, end);
    prev = end;
  }
  trace.span("scanner.run", kDriverTrack, t0, t1,
             "\"probes\": " + std::to_string(rep.probes));
  return rep;
}

using StepField = std::size_t measurement::StepTotals::*;

std::uint64_t sum_steps(const HourlyScanner& scanner, StepField field) {
  std::uint64_t total = 0;
  for (const auto& step : scanner.steps()) total += step.*field;
  return total;
}

/// The workload's correctness checks on one finished repetition.
void check_rep(const CampaignSpec& spec, const HourlyScanner& scanner,
               std::uint64_t fingerprint, std::uint64_t first_fingerprint,
               Report& report) {
  const auto validation = scanner.validation_cache_stats();
  const auto lint = scanner.lint_cache_stats();
  report.check(validation.hits + validation.misses == validation.lookups,
               "validation cache: hits + misses == lookups");
  report.check(lint.hits + lint.misses == lint.lookups,
               "lint cache: hits + misses == lookups");
  // Per-probe lint mirrors the validator's classification.
  const std::pair<const char*, StepField> agree[] = {
      {"e_ocsp_unparseable", &measurement::StepTotals::unparseable},
      {"e_ocsp_serial_mismatch", &measurement::StepTotals::serial_mismatch},
      {"e_ocsp_bad_signature", &measurement::StepTotals::bad_signature},
  };
  for (const auto& [rule, field] : agree) {
    report.check(scanner.lint_report().count(rule) == sum_steps(scanner, field),
                 std::string("lint ") + rule + " agrees with the validator");
  }
  const auto progress = scanner.progress();
  const std::uint64_t per_step = progress.targets * net::kRegionCount;
  report.check(progress.probes_done == per_step * scanner.steps().size(),
               "probes == targets x 6 x steps");
  report.check(spec.scan.max_steps == 0 ||
                   scanner.steps().size() == spec.scan.max_steps,
               "step count");
  report.check(fingerprint == first_fingerprint,
               "fingerprint identical across repetitions");
  if (spec.ecosystem.seed == 2018) {
    report.check(fingerprint == spec.golden,
                 "fingerprint matches the seed-2018 golden value");
  }
}

struct Phase {
  std::vector<double> setup_s;
  std::vector<double> ecosystem_s;
  std::vector<double> scanner_s;
  /// reps[0] runs in a fresh process and also pays for first-touch page
  /// faults, which later repetitions reuse from the allocator; it is checked
  /// but not timed, and the process's peak RSS is read right after it.
  std::vector<RepResult> reps;
  double cold_rss_mb = 0.0;

  std::span<const RepResult> timed() const {
    return std::span<const RepResult>(reps).subspan(1);
  }
};

/// A cold repetition, then timed ones until `seconds` of scan time (at
/// least one), plus set-up-only builds until there are five set-up samples.
/// `calibration`, when given, is sampled 3 times before each repetition and
/// after the last. `before` and `after` see each repetition's world around
/// its scan.
template <typename Before, typename After>
Phase run_phase(const CampaignSpec& spec, double seconds,
                Calibration* calibration, Report& report, TraceWriter& trace,
                Before&& before, After&& after) {
  auto calibrate = [calibration] {
    for (int c = 0; calibration != nullptr && c < 3; ++c) {
      calibration->sample();
    }
  };
  Phase phase;
  double timed_s = 0.0;
  std::uint64_t first_fingerprint = 0;
  while (phase.reps.size() < 2 || timed_s < seconds) {
    calibrate();
    World world = build_world(spec, trace);
    phase.setup_s.push_back(world.ecosystem_s + world.scanner_s);
    phase.ecosystem_s.push_back(world.ecosystem_s);
    phase.scanner_s.push_back(world.scanner_s);
    before(world);
    RepResult rep = run_rep(world, report, trace);
    after(world);
    const std::uint64_t fingerprint = campaign_fingerprint(*world.scanner);
    if (phase.reps.empty()) first_fingerprint = fingerprint;
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    report.note("fingerprint", hex);
    check_rep(spec, *world.scanner, fingerprint, first_fingerprint, report);
    std::fprintf(stderr, "  rep %zu: %llu probes in %.3f s, fingerprint %s\n",
                 phase.reps.size() + 1,
                 static_cast<unsigned long long>(rep.probes), rep.run_s, hex);
    report.attempted += rep.probes;
    if (phase.reps.empty()) {
      phase.cold_rss_mb = peak_rss_mb();
    } else {
      timed_s += rep.run_s;
    }
    phase.reps.push_back(std::move(rep));
  }
  calibrate();
  while (phase.setup_s.size() < 5) {
    World world = build_world(spec, trace);
    phase.setup_s.push_back(world.ecosystem_s + world.scanner_s);
    phase.ecosystem_s.push_back(world.ecosystem_s);
    phase.scanner_s.push_back(world.scanner_s);
  }
  return phase;
}

double median_of(std::span<const RepResult> reps,
                 double (*fn)(const RepResult&)) {
  std::vector<double> values;
  for (const RepResult& rep : reps) values.push_back(fn(rep));
  return median(values);
}

double cpu_us_per_probe(const RepResult& rep) {
  return rep.cpu_s * 1e6 / static_cast<double>(rep.probes);
}

double probes_per_s(const RepResult& rep) {
  return static_cast<double>(rep.probes) / rep.run_s;
}

std::vector<double> step_latencies(const Phase& phase) {
  std::vector<double> steps;
  for (const RepResult& rep : phase.timed()) {
    steps.insert(steps.end(), rep.step_us.begin(), rep.step_us.end());
  }
  return steps;
}

/// Probes of the first two steps replayed through Network::http_request_probe
/// on a fresh world built from the same seed, plus the layer replays over a
/// strided sample of its scan targets.
std::map<std::string, double> replay_campaign(const CampaignSpec& spec,
                                              TraceWriter& trace) {
  World world = build_world(spec, trace);
  Ecosystem& eco = *world.ecosystem;
  net::Network& network = eco.network();

  struct Probe {
    net::Url url;
    util::Bytes request_der;
  };
  std::vector<Probe> targets;
  std::vector<ReplayItem> items;
  const auto& scan_targets = eco.scan_targets();
  const std::size_t stride =
      std::max<std::size_t>(1, scan_targets.size() / 2048);
  for (std::size_t i = 0; i < scan_targets.size(); ++i) {
    const auto& t = scan_targets[i];
    if (!t.cert.extensions().supports_ocsp()) continue;
    auto url = net::parse_url(t.cert.extensions().ocsp_urls.front());
    if (!url.ok()) continue;
    const auto& issuer = eco.authority(t.ca_index).intermediate_cert();
    const auto id = ocsp::CertId::for_certificate(t.cert, issuer);
    targets.push_back(
        Probe{url.value(), ocsp::OcspRequest::single(id).encode_der()});
    if (i % stride == 0) {
      items.push_back(make_replay_item(id, std::nullopt,
                                       eco.responders()[t.responder_index].host,
                                       eco.responder(t.responder_index),
                                       eco.authority(t.ca_index)));
    }
  }

  std::map<std::string, double> us;
  const auto regions = net::all_regions();
  const std::size_t per_step = targets.size() * net::kRegionCount;
  double probe_ns = 0.0;
  std::uint64_t probes = 0;
  for (std::size_t step = 0; step < 2; ++step) {
    const auto offset = static_cast<std::int64_t>(step);
    world.loop->run_until(spec.ecosystem.campaign_start +
                          util::Duration::secs(spec.scan.interval.seconds *
                                               offset));
    // The scanner's own request shape and probe ordinals (step base + 1).
    const std::uint64_t t0 = now_ns();
    for (std::size_t p = 0; p < per_step; ++p) {
      const Probe& probe = targets[p % targets.size()];
      net::HttpRequest request;
      request.method = "POST";
      request.body = probe.request_der;
      request.headers.set("content-type", "application/ocsp-request");
      (void)network.http_request_probe(regions[p / targets.size()], probe.url,
                                       std::move(request),
                                       step * per_step + p + 1);
    }
    const std::uint64_t t1 = now_ns();
    trace.span("replay.net.probe", kReplayTrack, t0, t1,
               "\"calls\": " + std::to_string(per_step));
    probe_ns += static_cast<double>(t1 - t0);
    probes += per_step;
  }
  us["net.probe_us"] = ns_to_us(probe_ns) / static_cast<double>(probes);
  for (const auto& [name, value] :
       replay_layers(items, network.now(), trace)) {
    us[name] = value;
  }
  return us;
}

}  // namespace

bool is_campaign(const std::string& workload) {
  return workload == "campaign_paper" || workload == "campaign_availability";
}

void run_campaign(const Options& options, Report& report, TraceWriter& trace) {
  const CampaignSpec spec = campaign_spec(options);
  auto nothing = [](World&) {};

  if (!options.trace) {
    Calibration calibration;
    const Phase phase =
        run_phase(spec, options.seconds, &calibration, report, trace, nothing,
                  nothing);
    const std::vector<double> steps = step_latencies(phase);
    const double time = calibration.time_factor();
    report.scaled("setup_s", median(phase.setup_s), time, "s");
    report.scaled("ops_per_s", median_of(phase.timed(), probes_per_s),
                  calibration.rate_factor(), "1/s");
    report.scaled("cpu_us_per_op", median_of(phase.timed(), cpu_us_per_probe),
                  time, "us");
    report.scaled("p50_us", median(steps), time, "us");
    report.metric("peak_rss_mb", phase.cold_rss_mb, "MiB");
    report.note("calibration_ms", calibration.median_ms());
    std::vector<double> tail = steps;
    report_tail(report, false, percentile(tail, 0.99), steps);
    report.note("repetitions", static_cast<double>(phase.reps.size()));
    return;
  }

  // Traced run: an untraced half for the overhead baseline and the latency
  // diagnostics, then a half with every responder handler timed and the
  // phase profiler read back after each repetition.
  const Phase plain =
      run_phase(spec, options.seconds / 2, nullptr, report, trace, nothing,
                nothing);
  AtomicHistogram handler;
  util::ShardedCacheStats validation{};
  util::ShardedCacheStats lint{};
  std::vector<obs::Profiler::Entry> profile;
  const Phase traced = run_phase(
      spec, options.seconds / 2, nullptr, report, trace,
      [&handler](World& world) {
        obs::default_profiler().reset();
        Ecosystem& eco = *world.ecosystem;
        for (std::size_t i = 0; i < eco.responders().size(); ++i) {
          ca::OcspResponder* responder = &eco.responder(i);
          auto timed = [responder, &handler](const net::HttpRequest& request,
                                             util::SimTime now,
                                             net::Region from) {
            const std::uint64_t t0 = now_ns();
            net::HttpResponse response = responder->handle(request, now, from);
            handler.record(now_ns() - t0);
            return response;
          };
          // OcspResponder::install binds ports 80 and 443; replace both.
          const std::string& host = eco.responders()[i].host;
          eco.network().register_service(host, 80, timed);
          eco.network().register_service(host, 443, timed);
        }
      },
      [&](World& world) {
        validation = world.scanner->validation_cache_stats();
        lint = world.scanner->lint_cache_stats();
        profile = obs::default_profiler().snapshot();
      });
  const std::vector<double> steps = step_latencies(plain);
  std::vector<double> tail = steps;
  report_tail(report, true, percentile(tail, 0.99), steps);

  report.metric("measurement.ecosystem_build_s", median(traced.ecosystem_s),
                "s");
  report.metric("measurement.scanner_build_s", median(traced.scanner_s), "s");
  auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  report.metric("util.validation_cache.hit_ratio",
                ratio(validation.hits, validation.lookups), "ratio");
  report.metric("util.lint_cache.hit_ratio", ratio(lint.hits, lint.lookups),
                "ratio");
  // Calls each layer made in the last traced repetition, from the scanner's
  // own cache statistics: every validated body is hashed once for the
  // validation cache and once more for the lint cache; misses verify/lint.
  const std::uint64_t sha_calls =
      validation.lookups + (spec.scan.lint_responses ? lint.lookups : 0);
  report.metric("crypto.sha256_calls", static_cast<double>(sha_calls),
                "count");
  report.metric("ocsp.verify_static_calls",
                static_cast<double>(validation.misses), "count");
  report.metric("lint.lint_calls", static_cast<double>(lint.misses), "count");
  report.metric("ca.handler_us.p50", ns_to_us(handler.percentile_ns(0.5)),
                "us");
  report.metric("ca.handler_us.p99", ns_to_us(handler.percentile_ns(0.99)),
                "us");

  const std::map<std::string, double> us = replay_campaign(spec, trace);
  for (const auto& [name, value] : us) {
    if (name != "ca.handle_us") report.metric(name, value, "us");
  }
  // The live handler against the same handler replayed on one thread: the
  // difference is mostly the responder mutex the two scan threads share.
  report.metric("ca.lock_wait_us",
                ns_to_us(handler.mean_ns()) - us.at("ca.handle_us"), "us");

#if MUSTAPLE_OBS_ENABLED
  double fanout = 0.0;
  double probe_cpu = 0.0;
  double accumulate = 0.0;
  double step_self = 0.0;
  for (const auto& entry : profile) {
    const auto wall = static_cast<double>(entry.stats.wall_ns);
    if (entry.name == "scan.fanout") fanout += wall;
    if (entry.name == "scan.accumulate") accumulate += wall;
    if (entry.name == "scan.execute_probe") {
      probe_cpu += static_cast<double>(entry.stats.cpu_ns);
    }
    if (entry.name == "scan.step") {
      step_self += static_cast<double>(entry.self_wall_ns);
    }
  }
  report.metric("measurement.fanout_wall_s", ns_to_s(fanout), "s");
  report.metric("measurement.probe_cpu_s", ns_to_s(probe_cpu), "s");
  report.metric("measurement.accumulate_s", ns_to_s(accumulate), "s");
  report.metric("measurement.step_self_s", ns_to_s(step_self), "s");
  report.metric(
      "measurement.parallel_efficiency",
      fanout > 0 ? probe_cpu / (fanout * static_cast<double>(spec.scan.threads))
                 : 0.0,
      "ratio");
  const RepResult& last = traced.reps.back();
  // Share of the last traced repetition's scan CPU that the replayed
  // per-call costs times the measured call counts, plus the serial
  // accumulate and step self time, account for.
  const double attributed_us =
      static_cast<double>(last.probes) * us.at("net.probe_us") +
      static_cast<double>(sha_calls) * us.at("crypto.sha256_us") +
      static_cast<double>(validation.misses) * us.at("ocsp.verify_static_us") +
      static_cast<double>(validation.lookups) * us.at("ocsp.time_checks_us") +
      static_cast<double>(lint.misses) * us.at("lint.lint_us");
  report.metric("measurement.attributed_share",
                (attributed_us / 1e6 + ns_to_s(accumulate + step_self)) /
                    last.cpu_s,
                "ratio");
#endif
  report_alloc_peaks(report);

  const double plain_cpu = median_of(plain.timed(), cpu_us_per_probe);
  const double traced_cpu = median_of(traced.timed(), cpu_us_per_probe);
  report.metric("trace.overhead_pct",
                100.0 * (traced_cpu - plain_cpu) / plain_cpu, "%");
}

}  // namespace mustaple::bench
