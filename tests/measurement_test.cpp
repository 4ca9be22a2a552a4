// Ecosystem-generation invariants, scaled-down scanner runs, the
// consistency audit, and the end-to-end MustStapleStudy façade.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string_view>

#include "analysis/adoption.hpp"
#include "analysis/browser_suite.hpp"
#include "analysis/webserver_suite.hpp"
#include "core/study.hpp"
#include "measurement/alexa_scan.hpp"
#include "measurement/consistency.hpp"
#include "measurement/ecosystem.hpp"
#include "measurement/scanner.hpp"
#include "net/url.hpp"
#include "obs/prof.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "ocsp/response.hpp"
#include "util/alloc.hpp"
#include "util/thread_pool.hpp"

namespace mustaple::measurement {
namespace {

using util::Duration;

EcosystemConfig small_config() {
  EcosystemConfig config;
  config.seed = 7;
  config.responder_count = 130;
  config.alexa_domains = 20000;
  config.certs_per_responder = 2;
  // One-week campaign keeps scanner tests fast.
  config.campaign_start = util::make_time(2018, 4, 25);
  config.campaign_end = util::make_time(2018, 5, 2);
  return config;
}

struct EcosystemFixture : public ::testing::Test {
  EcosystemConfig config = small_config();
  net::EventLoop loop{config.campaign_start - Duration::days(1)};
  Ecosystem ecosystem{config, loop};
};

// ------------------------------------------------------------- ecosystem --

TEST_F(EcosystemFixture, ResponderCountAtLeastConfigured) {
  EXPECT_GE(ecosystem.responders().size(), config.responder_count);
}

TEST_F(EcosystemFixture, DomainsGenerated) {
  EXPECT_EQ(ecosystem.domains().size(), config.alexa_domains);
}

TEST_F(EcosystemFixture, DomainFlagsAreConsistent) {
  for (const auto& meta : ecosystem.domains()) {
    if (!meta.https) {
      EXPECT_FALSE(meta.ocsp);
      EXPECT_FALSE(meta.staples);
    }
    if (meta.ocsp) {
      EXPECT_TRUE(meta.https);
      ASSERT_LT(meta.responder, ecosystem.responders().size());
    }
    if (meta.staples || meta.must_staple) {
      EXPECT_TRUE(meta.ocsp);
    }
  }
}

TEST_F(EcosystemFixture, AdoptionRatesInPaperRange) {
  const auto stats = ecosystem.deployment_stats();
  const double https_rate = static_cast<double>(stats.alexa_https) /
                            static_cast<double>(config.alexa_domains);
  EXPECT_GT(https_rate, 0.65);
  EXPECT_LT(https_rate, 0.82);
  const double ocsp_rate = static_cast<double>(stats.alexa_ocsp) /
                           static_cast<double>(stats.alexa_https);
  EXPECT_GT(ocsp_rate, 0.85);  // paper: 91.3% average
  EXPECT_LT(ocsp_rate, 0.97);
}

TEST_F(EcosystemFixture, MustStapleIsRareAndMostlyLetsEncrypt) {
  const auto stats = ecosystem.deployment_stats();
  // 0.01% of 20k domains is ~2; allow for noise but demand rarity.
  EXPECT_LT(stats.must_staple_certs, 20u);
  EXPECT_GE(stats.must_staple_lets_encrypt * 10,
            stats.must_staple_certs * 5);  // >= 50% LE even in tiny samples
}

TEST_F(EcosystemFixture, ComodoAliasesShareCanonicalName) {
  const auto& dns = ecosystem.network().dns();
  EXPECT_EQ(dns.canonical_name("ocsp2.comodoca.com"), "ocsp.comodoca.com");
  EXPECT_EQ(dns.canonical_name("ocsp.comodoca2.com"), "ocsp.comodoca.com");
}

TEST_F(EcosystemFixture, RootStoreCoversAllCas) {
  EXPECT_EQ(ecosystem.roots().size(), ecosystem.authority_count());
}

TEST_F(EcosystemFixture, ScanTargetsHaveValidCerts) {
  ASSERT_FALSE(ecosystem.scan_targets().empty());
  const util::SimTime now = ecosystem.network().now();
  for (const auto& target : ecosystem.scan_targets()) {
    EXPECT_TRUE(target.cert.extensions().supports_ocsp());
    EXPECT_TRUE(target.cert.validity().contains(config.campaign_end));
    ASSERT_LT(target.responder_index, ecosystem.responders().size());
    EXPECT_TRUE(x509::Certificate::parse(target.cert.encode_der()).ok())
        << target.cert.serial_hex();
    // The target's responder is reachable by URL, and its answer for the
    // target parses as a successful response (malformed bodies are served
    // by handle(), not built here).
    ca::OcspResponder& responder = ecosystem.responder(target.responder_index);
    EXPECT_TRUE(net::parse_url(responder.url()).ok()) << responder.url();
    const auto id = ocsp::CertId::for_certificate(
        target.cert, ecosystem.authority(target.ca_index).intermediate_cert());
    const auto response =
        ocsp::OcspResponse::parse(responder.build_response_der(id, now));
    ASSERT_TRUE(response.ok()) << responder.url();
    EXPECT_TRUE(response.value().successful()) << responder.url();
  }
}

TEST_F(EcosystemFixture, DeterministicAcrossConstructions) {
  net::EventLoop loop2(config.campaign_start - Duration::days(1));
  Ecosystem other(config, loop2);
  ASSERT_EQ(other.domains().size(), ecosystem.domains().size());
  for (std::size_t i = 0; i < other.domains().size(); i += 97) {
    EXPECT_EQ(other.domains()[i].rank, ecosystem.domains()[i].rank);
    EXPECT_EQ(other.domains()[i].https, ecosystem.domains()[i].https);
    EXPECT_EQ(other.domains()[i].responder, ecosystem.domains()[i].responder);
  }
  ASSERT_EQ(other.scan_targets().size(), ecosystem.scan_targets().size());
  EXPECT_EQ(other.scan_targets()[0].cert.serial_hex(),
            ecosystem.scan_targets()[0].cert.serial_hex());
}

// --------------------------------------------------------------- scanner --

struct ScannerFixture : public EcosystemFixture {
  ScanConfig scan_config() {
    ScanConfig scan;
    scan.interval = Duration::hours(12);
    return scan;
  }
};

TEST_F(ScannerFixture, CampaignProducesSteps) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  EXPECT_EQ(scanner.steps().size(), 14u);  // 7 days / 12h
  EXPECT_THROW(scanner.run(), std::logic_error);  // idempotence guard
}

TEST_F(ScannerFixture, MaxStepsCapsTheCampaign) {
  ScanConfig scan = scan_config();
  scan.max_steps = 3;
  HourlyScanner scanner(ecosystem, scan);
  scanner.run();
  EXPECT_EQ(scanner.steps().size(), 3u);
}

TEST_F(ScannerFixture, AvailabilityOnlyModeSkipsValidation) {
  ScanConfig scan = scan_config();
  scan.validate_responses = false;
  HourlyScanner scanner(ecosystem, scan);
  scanner.run();
  // Availability numbers still flow...
  std::size_t successes = 0;
  for (const auto& step : scanner.steps()) {
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      successes += step.successes[g];
    }
  }
  EXPECT_GT(successes, 0u);
  // ...but no quality/validation accounting happens.
  std::size_t quality_samples = 0;
  for (std::size_t r = 0; r < scanner.responder_count(); ++r) {
    for (net::Region region : net::all_regions()) {
      quality_samples += scanner.stats(r, region).validity_samples;
    }
  }
  EXPECT_EQ(quality_samples, 0u);
  for (const auto& step : scanner.steps()) {
    EXPECT_EQ(step.unparseable, 0u);
  }
}

TEST_F(ScannerFixture, MostRequestsSucceed) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  for (net::Region region : net::all_regions()) {
    const double failure = scanner.failure_rate(region);
    EXPECT_GT(failure, 0.0) << net::to_string(region);
    EXPECT_LT(failure, 0.20) << net::to_string(region);
  }
}

TEST_F(ScannerFixture, ComodoOutageVisibleOnlyInAffectedRegions) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  // The Apr 25 19:00-21:00 outage affects Oregon/Sydney/Seoul; the first
  // scan step lands at 00:00 Apr 25, the second at 12:00, neither inside
  // the window... the window is only visible to a step landing inside it.
  // Instead check per-responder stats: the Comodo canonical responder must
  // show zero failures from Virginia and (given the scan cadence misses the
  // 2h window) any failures only in the affected regions.
  std::size_t comodo = SIZE_MAX;
  for (std::size_t i = 0; i < ecosystem.responders().size(); ++i) {
    if (ecosystem.responders()[i].host == "ocsp.comodoca.com") comodo = i;
  }
  ASSERT_NE(comodo, SIZE_MAX);
  const auto& virginia = scanner.stats(comodo, net::Region::kVirginia);
  EXPECT_EQ(virginia.requests, virginia.http_successes);
}

TEST_F(ScannerFixture, NeverReachableRespondersDetected) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  // The two IdenTrust analogues are dead from everywhere.
  EXPECT_GE(scanner.responders_never_reachable(), 2u);
}

TEST_F(ScannerFixture, RegionPersistentFailuresDetected) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  // 16 DNS + 4 TCP + 8 HTTP + 1 TLS pinned per-region failures (some may
  // overlap with transient outages, so just demand a healthy count).
  EXPECT_GE(scanner.responders_region_persistent_fail(), 10u);
}

TEST_F(ScannerFixture, FailureTaxonomyMatchesPaperShape) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  const auto taxonomy = scanner.persistent_failure_taxonomy();
  // §5.2: DNS failures dominate (16 of 29), then HTTP (8), TCP (4+2
  // never-reachable IdenTrust analogues), one TLS-certificate case.
  EXPECT_GE(taxonomy.dns, 8u);
  EXPECT_GE(taxonomy.tcp, 2u);
  EXPECT_GE(taxonomy.http, 4u);
  EXPECT_GE(taxonomy.tls, 1u);
  EXPECT_GT(taxonomy.dns, taxonomy.tls);
}

TEST_F(ScannerFixture, QualityCdfsPopulated) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  const auto certs = scanner.cdf_certs(net::Region::kVirginia);
  const auto serials = scanner.cdf_serials(net::Region::kVirginia);
  const auto validity = scanner.cdf_validity(net::Region::kVirginia);
  const auto margin = scanner.cdf_margin(net::Region::kVirginia);
  EXPECT_GT(certs.count(), 50u);
  EXPECT_GT(serials.count(), 50u);
  EXPECT_GT(validity.count(), 50u);
  EXPECT_GT(margin.count(), 50u);
  // Fig 7 shape: the vast majority of responders send exactly one serial.
  EXPECT_GT(serials.fraction_at_most(1.0), 0.85);
  // Fig 8 shape: some responders have blank (infinite) validity.
  EXPECT_GT(validity.infinite_fraction(), 0.02);
  // Fig 6 shape: most responders send <= 1 certificate.
  EXPECT_GT(certs.fraction_at_most(1.0), 0.70);
}

TEST_F(ScannerFixture, MarginCdfShowsZeroMarginMass) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  const auto margin = scanner.cdf_margin(net::Region::kParis);
  // Fig 9: a visible mass of responders with ~zero thisUpdate margin, and
  // a small negative (future thisUpdate) tail.
  EXPECT_GT(margin.fraction_at_most(1.0), 0.08);
  EXPECT_GT(margin.fraction_at_most(-1.0), 0.005);
}

TEST_F(ScannerFixture, PreGenerationDetected) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  const std::size_t pre = scanner.responders_pre_generated();
  const std::size_t total = scanner.responder_count();
  // §5.4: 51.7% pre-generate. Allow a generous band at this scale.
  EXPECT_GT(pre, total / 4);
  EXPECT_LT(pre, total * 3 / 4);
}

TEST_F(ScannerFixture, Fig5BucketsAppear) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  std::size_t unparseable = 0;
  std::size_t responses = 0;
  for (const auto& step : scanner.steps()) {
    unparseable += step.unparseable;
    responses += step.responses_200;
  }
  ASSERT_GT(responses, 0u);
  // Persistent malformed responders guarantee a nonzero unparseable rate,
  // but it stays a small fraction (Fig 5 peaks ~3%).
  EXPECT_GT(unparseable, 0u);
  EXPECT_LT(static_cast<double>(unparseable) / static_cast<double>(responses),
            0.10);
}

TEST_F(ScannerFixture, DomainImpactAccounted) {
  HourlyScanner scanner(ecosystem, scan_config());
  scanner.run();
  // Sao Paulo has persistent failures (digitalcertvalidation 404s et al.),
  // so its domains-unable series is nonzero at every step.
  bool any = false;
  for (const auto& step : scanner.steps()) {
    if (step.domains_unable[static_cast<std::size_t>(
            net::Region::kSaoPaulo)] > 0) {
      any = true;
    }
  }
  EXPECT_TRUE(any);
}

// ---------------------------------------- deterministic parallel scans --

// Everything a campaign can emit, extracted into plain values so two runs
// can be compared field by field with exact (bit-identical) equality.
struct CampaignSummary {
  std::vector<StepTotals> steps;
  std::vector<ResponderRegionStats> stats;
  std::size_t with_outage = 0;
  std::size_t never_reachable = 0;
  std::size_t region_persistent = 0;
  HourlyScanner::FailureTaxonomy taxonomy;
  std::size_t pre_generated = 0;
  std::size_t non_overlapping = 0;
  std::array<double, net::kRegionCount> failure_rates{};
  std::vector<double> validity_cdf;
  std::vector<double> margin_cdf;
  std::string timeline_csv;
  std::string lint_json;
  std::string trace_json;  // trace ids renumbered, see normalize_trace_ids
  // Named allocation counters that had freed more bytes than they allocated
  // when the run ended; conservation says there are none.
  std::vector<std::string> overfreed_alloc_counters;
  // Check-memo statistics: lookups and the hit/miss split.
  util::ShardedCacheStats validation_totals;
  util::ShardedCacheStats lint_totals;
};

// Renumbers each "trace":N of a rendered Chrome trace by first appearance.
// Trace ids come from the process-wide obs::next_trace_id(), so a second
// campaign in the same process gets different ids for the same steps.
std::string normalize_trace_ids(const std::string& trace) {
  constexpr std::string_view kKey = "\"trace\":";
  std::map<std::string, std::size_t> renumbered;
  std::string out;
  std::size_t pos = 0;
  for (std::size_t hit = trace.find(kKey); hit != std::string::npos;
       hit = trace.find(kKey, pos)) {
    const std::size_t digits = hit + kKey.size();
    const std::size_t end = trace.find_first_not_of("0123456789", digits);
    const std::size_t id =
        renumbered
            .try_emplace(trace.substr(digits, end - digits),
                         renumbered.size() + 1)
            .first->second;
    out.append(trace, pos, digits - pos);
    out += std::to_string(id);
    pos = end;
  }
  out.append(trace, pos);
  return out;
}

CampaignSummary run_campaign(std::size_t threads) {
  EcosystemConfig config = small_config();
  net::EventLoop loop(config.campaign_start - Duration::days(1));
  Ecosystem ecosystem(config, loop);
  ScanConfig scan;
  scan.interval = Duration::hours(12);
  scan.max_steps = 6;
  scan.threads = threads;
  HourlyScanner scanner(ecosystem, scan);

  obs::Timeline timeline(config.campaign_start, scan.interval);
  obs::Timeline* previous = obs::install_timeline(&timeline);
  obs::TraceLog& trace_log = obs::default_trace_log();
  trace_log.reset();
  trace_log.enable(loop.now());
  scanner.run();
  trace_log.disable();
  timeline.flush(loop.now());
  obs::install_timeline(previous);

  CampaignSummary summary;
  summary.trace_json = normalize_trace_ids(trace_log.render_chrome_trace());
  trace_log.reset();
  util::visit_alloc_counters(
      [&summary](const std::string& name, const util::AllocCounter& counter) {
        if (counter.freed_bytes() > counter.allocated_bytes()) {
          summary.overfreed_alloc_counters.push_back(name);
        }
      });
  summary.steps = scanner.steps();
  for (std::size_t r = 0; r < scanner.responder_count(); ++r) {
    for (net::Region region : net::all_regions()) {
      summary.stats.push_back(scanner.stats(r, region));
    }
  }
  summary.with_outage = scanner.responders_with_outage();
  summary.never_reachable = scanner.responders_never_reachable();
  summary.region_persistent = scanner.responders_region_persistent_fail();
  summary.taxonomy = scanner.persistent_failure_taxonomy();
  summary.pre_generated = scanner.responders_pre_generated();
  summary.non_overlapping = scanner.responders_non_overlapping();
  for (net::Region region : net::all_regions()) {
    summary.failure_rates[static_cast<std::size_t>(region)] =
        scanner.failure_rate(region);
  }
  summary.validity_cdf =
      scanner.cdf_validity(net::Region::kVirginia).sorted_finite();
  summary.margin_cdf =
      scanner.cdf_margin(net::Region::kSaoPaulo).sorted_finite();
  summary.timeline_csv = timeline.render_csv();
  summary.lint_json = scanner.lint_report().render_json();
  summary.validation_totals = scanner.validation_cache_stats();
  summary.lint_totals = scanner.lint_cache_stats();
  return summary;
}

// Every lookup is exactly one hit or one miss, and the whole split is a
// campaign output: each target's probes of a step run in region order on
// one worker, so the same bodies hit and miss at every thread count.
void expect_check_counts_identical(const util::ShardedCacheStats& a,
                                   const util::ShardedCacheStats& b) {
  EXPECT_EQ(a.hits + a.misses, a.lookups);
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
}

void expect_online_stats_identical(const util::OnlineStats& a,
                                   const util::OnlineStats& b) {
  EXPECT_EQ(a.count(), b.count());
  // EXPECT_EQ, not NEAR: float accumulation replays in canonical order, so
  // the sums must be bit-identical, not merely close.
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_campaigns_identical(const CampaignSummary& one,
                                const CampaignSummary& four) {
  ASSERT_EQ(one.steps.size(), four.steps.size());
  for (std::size_t s = 0; s < one.steps.size(); ++s) {
    const StepTotals& a = one.steps[s];
    const StepTotals& b = four.steps[s];
    EXPECT_EQ(a.when, b.when);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.domains_unable, b.domains_unable);
    EXPECT_EQ(a.responses_200, b.responses_200);
    EXPECT_EQ(a.unparseable, b.unparseable);
    EXPECT_EQ(a.serial_mismatch, b.serial_mismatch);
    EXPECT_EQ(a.bad_signature, b.bad_signature);
  }

  ASSERT_EQ(one.stats.size(), four.stats.size());
  for (std::size_t i = 0; i < one.stats.size(); ++i) {
    const ResponderRegionStats& a = one.stats[i];
    const ResponderRegionStats& b = four.stats[i];
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.http_successes, b.http_successes);
    EXPECT_EQ(a.usable_responses, b.usable_responses);
    EXPECT_EQ(a.dns_failures, b.dns_failures);
    EXPECT_EQ(a.tcp_failures, b.tcp_failures);
    EXPECT_EQ(a.http_errors, b.http_errors);
    EXPECT_EQ(a.tls_failures, b.tls_failures);
    expect_online_stats_identical(a.certs_per_response, b.certs_per_response);
    expect_online_stats_identical(a.serials_per_response,
                                  b.serials_per_response);
    expect_online_stats_identical(a.validity_seconds, b.validity_seconds);
    expect_online_stats_identical(a.margin_seconds, b.margin_seconds);
    expect_online_stats_identical(a.produced_at_deltas, b.produced_at_deltas);
    EXPECT_EQ(a.blank_next_update, b.blank_next_update);
    EXPECT_EQ(a.validity_samples, b.validity_samples);
    EXPECT_EQ(a.future_this_update, b.future_this_update);
    EXPECT_EQ(a.expired_next_update, b.expired_next_update);
    EXPECT_EQ(a.last_produced_at, b.last_produced_at);
    EXPECT_EQ(a.last_observed_at, b.last_observed_at);
    EXPECT_EQ(a.produced_regressions, b.produced_regressions);
    EXPECT_EQ(a.cached_observations, b.cached_observations);
  }

  EXPECT_EQ(one.with_outage, four.with_outage);
  EXPECT_EQ(one.never_reachable, four.never_reachable);
  EXPECT_EQ(one.region_persistent, four.region_persistent);
  EXPECT_EQ(one.taxonomy.dns, four.taxonomy.dns);
  EXPECT_EQ(one.taxonomy.tcp, four.taxonomy.tcp);
  EXPECT_EQ(one.taxonomy.http, four.taxonomy.http);
  EXPECT_EQ(one.taxonomy.tls, four.taxonomy.tls);
  EXPECT_EQ(one.pre_generated, four.pre_generated);
  EXPECT_EQ(one.non_overlapping, four.non_overlapping);
  for (std::size_t g = 0; g < net::kRegionCount; ++g) {
    EXPECT_EQ(one.failure_rates[g], four.failure_rates[g]);
  }
  EXPECT_EQ(one.validity_cdf, four.validity_cdf);
  EXPECT_EQ(one.margin_cdf, four.margin_cdf);
  // The observability plane is part of the contract too: identical metric
  // deltas in every timeline window, rendered to the same CSV bytes.
  EXPECT_EQ(one.timeline_csv, four.timeline_csv);
  // Inline lint findings accumulate in canonical probe order, so the whole
  // report (counts AND retained finding order) must also be bit-identical.
  EXPECT_EQ(one.lint_json, four.lint_json);
  // So must the trace: workers record no trace events, and the replay
  // records every probe's fetch span in canonical order.
  EXPECT_TRUE(one.trace_json == four.trace_json)
      << "trace.json differs (" << one.trace_json.size() << " vs "
      << four.trace_json.size() << " bytes)";
}

TEST(ScannerThreading, FourThreadsBitIdenticalToOneThread) {
  expect_campaigns_identical(run_campaign(1), run_campaign(4));
}

TEST(ScannerThreading, OneTwoFourThreadsBitIdentical) {
  const CampaignSummary one = run_campaign(1);
  const CampaignSummary two = run_campaign(2);
  const CampaignSummary four = run_campaign(4);
  expect_campaigns_identical(one, two);
  expect_campaigns_identical(one, four);
  expect_campaigns_identical(two, four);
  for (const CampaignSummary* run : {&one, &two, &four}) {
    expect_check_counts_identical(run->validation_totals,
                                  one.validation_totals);
    expect_check_counts_identical(run->lint_totals, one.lint_totals);
    EXPECT_TRUE(run->overfreed_alloc_counters.empty())
        << run->overfreed_alloc_counters.front();
  }
  EXPECT_GT(one.validation_totals.hits, 0u);
  EXPECT_GT(one.validation_totals.misses, 0u);
#if MUSTAPLE_OBS_ENABLED
  // The trace comparison is not vacuous: the fetch spans are in it.
  EXPECT_NE(one.trace_json.find("\"cat\":\"net\""), std::string::npos);
#endif
}

// The fan-out charges one profile scope per pool chunk with the chunk's
// probe count, so the phase still counts probes, at every thread count.
TEST(ScannerThreading, ProbeProfileCountEqualsProbesDone) {
#if MUSTAPLE_OBS_ENABLED
  for (std::size_t threads : {1, 2, 4}) {
    EcosystemConfig config = small_config();
    net::EventLoop loop(config.campaign_start - Duration::days(1));
    Ecosystem ecosystem(config, loop);
    ScanConfig scan;
    scan.interval = Duration::hours(12);
    scan.max_steps = 3;
    scan.threads = threads;
    HourlyScanner scanner(ecosystem, scan);
    obs::default_profiler().reset();
    scanner.run();
    std::uint64_t charged = 0;
    for (const obs::Profiler::Entry& entry :
         obs::default_profiler().snapshot()) {
      if (entry.name == "scan.execute_probe") charged += entry.stats.count;
    }
    const std::uint64_t probes = scanner.progress().probes_done;
    EXPECT_GT(probes, 3 * util::ThreadPool::kChunk);
    EXPECT_EQ(charged, probes) << threads << " threads";
  }
#endif
}

TEST(ScannerThreading, ExplicitThreadCountBeatsEnvironment) {
  // threads=0 means auto (env var); an explicit count must win over it.
  const char* saved = std::getenv("MUSTAPLE_SCAN_THREADS");
  const std::string restore = saved ? saved : "";
  ::setenv("MUSTAPLE_SCAN_THREADS", "2", 1);
  EcosystemConfig config = small_config();
  config.responder_count = 10;
  config.alexa_domains = 500;
  net::EventLoop loop(config.campaign_start - Duration::days(1));
  Ecosystem ecosystem(config, loop);
  ScanConfig scan;
  scan.interval = Duration::hours(12);
  scan.max_steps = 1;
  scan.threads = 1;
  HourlyScanner scanner(ecosystem, scan);
  scanner.run();  // would deadlock or misbehave only if env leaked through
  if (saved) {
    ::setenv("MUSTAPLE_SCAN_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("MUSTAPLE_SCAN_THREADS");
  }
  EXPECT_EQ(scanner.steps().size(), 1u);
}

// ------------------------------------------------------------ check memo --

// A one-thread toy campaign with every responder service wrapped to record
// the HTTP-200 bodies it sends, keyed by the OCSPRequest DER that asked for
// them (one per scan target). One responder answers tryLater during the
// second of three steps; its stats and lint findings are snapshotted after
// each step.
struct MemoCampaign {
  std::uint64_t bodies_200 = 0;
  // One per target per position in its sequence of 200-bodies where the
  // body differs from the previous one (the first body included).
  std::uint64_t body_changes = 0;
  util::ShardedCacheStats validation;
  util::ShardedCacheStats lint;
  std::size_t flipped = SIZE_MAX;  ///< the responder switched to tryLater
  // The flipped responder's HTTP-200s, kOk verdicts and not-successful
  // lint findings, cumulative after each step, summed over regions.
  std::vector<std::size_t> successes;
  std::vector<std::size_t> usable;
  std::vector<std::size_t> not_successful;
  std::uint64_t findings_dropped = 0;
};

MemoCampaign run_memo_campaign() {
  EcosystemConfig config;
  config.seed = 2018;
  config.responder_count = 64;
  config.alexa_domains = 2000;
  config.certs_per_responder = 2;
  net::EventLoop loop(config.campaign_start - Duration::days(1));
  Ecosystem ecosystem(config, loop);

  std::map<util::Bytes, std::vector<util::Bytes>> bodies;
  for (std::size_t i = 0; i < ecosystem.responders().size(); ++i) {
    ca::OcspResponder* responder = &ecosystem.responder(i);
    auto recording = [responder, &bodies](const net::HttpRequest& request,
                                          util::SimTime now,
                                          net::Region from) {
      net::HttpResponse response = responder->handle(request, now, from);
      if (response.status_code == 200) {
        bodies[request.body].push_back(response.body);
      }
      return response;
    };
    // OcspResponder::install binds ports 80 and 443; replace both.
    const std::string& host = ecosystem.responders()[i].host;
    ecosystem.network().register_service(host, 80, recording);
    ecosystem.network().register_service(host, 443, recording);
  }

  ScanConfig scan;
  scan.interval = Duration::hours(6);
  scan.max_steps = 3;
  scan.threads = 1;
  HourlyScanner scanner(ecosystem, scan);

  MemoCampaign out;
  const auto snapshot = [&] {
    std::size_t successes = 0;
    std::size_t usable = 0;
    for (net::Region region : net::all_regions()) {
      successes += scanner.stats(out.flipped, region).http_successes;
      usable += scanner.stats(out.flipped, region).usable_responses;
    }
    const std::string& host = ecosystem.responders()[out.flipped].host;
    std::size_t not_successful = 0;
    for (const lint::Finding& finding : scanner.lint_report().findings()) {
      not_successful += finding.rule_id == "i_ocsp_not_successful" &&
                        finding.artifact == host;
    }
    out.successes.push_back(successes);
    out.usable.push_back(usable);
    out.not_successful.push_back(not_successful);
  };
  // Events just before steps 1 and 2 run on the scanning thread, after the
  // previous step has been accumulated. The first picks a responder that is
  // its own canonical name and whose every step-0 probe was usable.
  const util::SimTime start = config.campaign_start;
  loop.schedule_at(start + Duration::hours(6) - Duration::minutes(1), [&] {
    for (std::size_t r = 0; r < scanner.responder_count(); ++r) {
      const std::string& host = ecosystem.responders()[r].host;
      if (ecosystem.network().dns().canonical_name(host) != host) continue;
      std::size_t requests = 0;
      bool all_usable = true;
      for (net::Region region : net::all_regions()) {
        const ResponderRegionStats& stats = scanner.stats(r, region);
        requests += stats.requests;
        all_usable = all_usable && stats.usable_responses == stats.requests;
      }
      if (requests > 0 && all_usable) {
        out.flipped = r;
        break;
      }
    }
    if (out.flipped == SIZE_MAX) return;
    snapshot();
    ecosystem.responder(out.flipped).set_try_later(true);
  });
  loop.schedule_at(start + Duration::hours(12) - Duration::minutes(1), [&] {
    if (out.flipped == SIZE_MAX) return;
    snapshot();
    ecosystem.responder(out.flipped).set_try_later(false);
  });
  scanner.run();
  if (out.flipped != SIZE_MAX) snapshot();

  for (const auto& [request, seen] : bodies) {
    out.bodies_200 += seen.size();
    for (std::size_t i = 0; i < seen.size(); ++i) {
      if (i == 0 || seen[i] != seen[i - 1]) ++out.body_changes;
    }
  }
  out.validation = scanner.validation_cache_stats();
  out.lint = scanner.lint_cache_stats();
  out.findings_dropped = scanner.lint_report().dropped();
  return out;
}

// A probe is checked again exactly when its target's body differs from the
// last one the target returned: a body another target also received, or
// one this target returned earlier, is no reason to skip the check.
TEST(ScannerCheckMemo, MissesAreEachTargetsBodyChanges) {
  const MemoCampaign run = run_memo_campaign();
  EXPECT_EQ(run.validation.lookups, run.bodies_200);
  EXPECT_EQ(run.validation.misses, run.body_changes);
  EXPECT_GT(run.validation.hits, 0u);
  // Lint is on, so every validated body is linted, from the same memo.
  EXPECT_EQ(run.lint.lookups, run.validation.lookups);
  EXPECT_EQ(run.lint.misses, run.validation.misses);
}

// kOk -> kNotSuccessful -> kOk: the tryLater body and the good body that
// follows it are both re-checked, so no verdict outlives its body.
TEST(ScannerCheckMemo, TryLaterForOneStepFlipsVerdictsAndBack) {
  const MemoCampaign run = run_memo_campaign();
  ASSERT_NE(run.flipped, SIZE_MAX) << "no responder usable at step 0";
  ASSERT_EQ(run.successes.size(), 3u);
  ASSERT_EQ(run.findings_dropped, 0u);
  const auto step = [](const std::vector<std::size_t>& cumulative,
                       std::size_t k) {
    return cumulative[k] - (k == 0 ? 0 : cumulative[k - 1]);
  };
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_GT(step(run.successes, k), 0u) << "step " << k;
  }
  EXPECT_EQ(step(run.usable, 0), step(run.successes, 0));
  EXPECT_EQ(step(run.not_successful, 0), 0u);
  EXPECT_EQ(step(run.usable, 1), 0u);
  EXPECT_EQ(step(run.not_successful, 1), step(run.successes, 1));
  EXPECT_EQ(step(run.usable, 2), step(run.successes, 2));
  EXPECT_EQ(step(run.not_successful, 2), 0u);
}

// ------------------------------------------------------------- alexa scan --

TEST_F(EcosystemFixture, AlexaOneShotScan) {
  AlexaScanConfig scan;
  scan.scan_time = util::make_time(2018, 4, 26);
  const AlexaScanResult result = run_alexa_scan(ecosystem, scan);
  EXPECT_GT(result.domains_probed, 10000u);
  EXPECT_GE(result.responders_touched, 100u);
  // The Sao Paulo digitalcertvalidation 404s and the regional persistent
  // pins guarantee nonzero unreachable counts somewhere.
  std::size_t total_unreachable = 0;
  for (std::size_t g = 0; g < net::kRegionCount; ++g) {
    total_unreachable += result.domains_unreachable[g];
  }
  EXPECT_GT(total_unreachable, 0u);
  // The IdenTrust analogues are dark from everywhere; they carry few (but
  // >= 0) domains, so just check the invariant holds.
  EXPECT_LE(result.domains_dark_everywhere, result.domains_probed);
}

TEST_F(EcosystemFixture, AlexaScanStrideReducesAttribution) {
  AlexaScanConfig full;
  const AlexaScanResult all = run_alexa_scan(ecosystem, full);
  AlexaScanConfig strided;
  strided.domain_stride = 10;
  const AlexaScanResult sampled = run_alexa_scan(ecosystem, strided);
  EXPECT_LT(sampled.domains_probed, all.domains_probed / 5);
  EXPECT_GT(sampled.domains_probed, 0u);
}

// ------------------------------------------------------------ consistency --

TEST_F(EcosystemFixture, ConsistencyAuditFindsTable1Shape) {
  ConsistencyConfig config;
  config.revoked_population = 1500;
  util::Rng rng(99);
  ConsistencyAudit audit(ecosystem, config);
  const ConsistencyReport report = audit.run(rng);

  EXPECT_GE(report.probed, config.revoked_population);
  EXPECT_GT(report.responses_collected, report.probed * 9 / 10);  // ~99.9%
  EXPECT_GT(report.crls_downloaded, 10u);

  // Table 1: rows exist; GlobalSign/Firmaprofesional analogues answer
  // Unknown for ALL their revoked certs, others leak a few Good answers.
  EXPECT_GE(report.table1.size(), 5u);
  bool saw_all_unknown = false;
  bool saw_good_leak = false;
  for (const auto& row : report.table1) {
    if (row.answered_unknown > 0 && row.answered_revoked == 0) {
      saw_all_unknown = true;
    }
    if (row.answered_good > 0 && row.answered_revoked > 0) {
      saw_good_leak = true;
    }
  }
  EXPECT_TRUE(saw_all_unknown);
  EXPECT_TRUE(saw_good_leak);

  // Fig 10: few differing revocation times; some negative; tail long.
  EXPECT_GT(report.time_differing, 0u);
  EXPECT_LT(report.time_differing, report.time_compared / 5);
  EXPECT_GT(report.max_positive_delta_seconds, 7 * 3600.0);

  // Reason codes: ~15% differ, and the differing ones are CRL-only.
  ASSERT_GT(report.reason_compared, 0u);
  const double reason_rate = static_cast<double>(report.reason_differing) /
                             static_cast<double>(report.reason_compared);
  EXPECT_GT(reason_rate, 0.08);
  EXPECT_LT(reason_rate, 0.25);
  EXPECT_EQ(report.reason_crl_only, report.reason_differing);
}

// ---------------------------------------------------------------- adoption --

TEST_F(EcosystemFixture, AdoptionByRankShape) {
  const auto adoption = analysis::adoption_by_rank(ecosystem, 20);
  ASSERT_EQ(adoption.bin_centers.size(), 20u);
  // Fig 2/11: popular bins have higher HTTPS and stapling rates than tail
  // bins.
  EXPECT_GT(adoption.https_pct.front(), adoption.https_pct.back());
  EXPECT_GT(adoption.staple_pct.front(), adoption.staple_pct.back());
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_GE(adoption.https_pct[i], 55.0);
    EXPECT_LE(adoption.https_pct[i], 90.0);
    EXPECT_GE(adoption.ocsp_pct[i], 80.0);
  }
}

TEST_F(EcosystemFixture, AdoptionOverTimeHasCloudflareJump) {
  const auto series = analysis::adoption_over_time(ecosystem);
  ASSERT_EQ(series.month_index.size(), 28u);
  // Stapling grows over the window...
  EXPECT_GT(series.staple_pct.back(), series.staple_pct.front());
  // ...with a visible jump at month 13 (June 2017, the Cloudflare event).
  const double jump = series.staple_pct[13] - series.staple_pct[12];
  double typical = 0.0;
  for (int m = 1; m < 28; ++m) {
    if (m == 13) continue;
    typical += std::abs(series.staple_pct[m] - series.staple_pct[m - 1]);
  }
  typical /= 26.0;
  EXPECT_GT(jump, typical * 2.0);
}

// -------------------------------------------------------------- study api --

TEST(MustStapleStudy, EndToEndTinyRun) {
  core::StudyConfig config;
  config.ecosystem = small_config();
  config.scan.interval = Duration::hours(24);
  config.consistency.revoked_population = 400;
  core::MustStapleStudy study(config);
  const core::ReadinessReport report = study.run();

  EXPECT_FALSE(report.web_is_ready);  // the paper's conclusion
  EXPECT_EQ(report.browsers_tested, 16u);
  EXPECT_EQ(report.browsers_requesting, 16u);
  EXPECT_EQ(report.browsers_respecting, 4u);
  EXPECT_EQ(report.servers_fully_correct, 0u);
  EXPECT_GT(report.responders_with_outage, 0u);
  EXPECT_GE(report.responders_never_reachable, 2u);
  EXPECT_EQ(report.verdicts.size(), 4u);

  const std::string rendered = report.render();
  EXPECT_NE(rendered.find("NOT ready"), std::string::npos);
  EXPECT_NE(rendered.find("NOT READY"), std::string::npos);
}

}  // namespace
}  // namespace mustaple::measurement
