#include "measurement/scanner.hpp"

#include <stdexcept>

#include "obs/flight.hpp"
#include "obs/obs.hpp"
#include "ocsp/request.hpp"
#include "util/thread_pool.hpp"

namespace mustaple::measurement {

namespace {
constexpr std::int64_t kCachedThresholdSeconds = 120;  // §5.4's 2 minutes

// The `cause` label of mustaple_scan_validation_failures_total; nullptr for
// outcomes that are not counted as failures.
const char* validation_failure_cause(ocsp::CheckOutcome outcome) {
  switch (outcome) {
    case ocsp::CheckOutcome::kUnparseable:
      return "unparseable";
    case ocsp::CheckOutcome::kNotSuccessful:
      return "not-successful";
    case ocsp::CheckOutcome::kSerialMismatch:
      return "serial-mismatch";
    case ocsp::CheckOutcome::kBadSignature:
      return "bad-signature";
    case ocsp::CheckOutcome::kNotYetValid:
      return "not-yet-valid";
    case ocsp::CheckOutcome::kExpired:
      return "expired";
    case ocsp::CheckOutcome::kOk:
    case ocsp::CheckOutcome::kNonceMismatch:
      break;
  }
  return nullptr;
}

// Heap bytes behind `s`: its capacity once it outgrows the inline buffer.
std::size_t heap_bytes(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() : 0;
}

// Heap bytes behind one finding list: the vector, its elements and their
// strings.
std::size_t heap_bytes(const std::vector<lint::Finding>& findings) {
  std::size_t bytes =
      sizeof(findings) + findings.capacity() * sizeof(lint::Finding);
  for (const lint::Finding& f : findings) {
    bytes += heap_bytes(f.rule_id) + heap_bytes(f.artifact) +
             heap_bytes(f.message);
  }
  return bytes;
}
}  // namespace

HourlyScanner::HourlyScanner(Ecosystem& ecosystem, ScanConfig config)
    : ecosystem_(&ecosystem),
      config_(config),
      targets_tally_(util::alloc_counter("scan.targets")),
      memo_counter_(&util::alloc_counter("scan.validation_cache")) {
  // A CertID's issuer hashes depend on the CA alone: hash each CA once.
  std::vector<ocsp::CertId> issuer_ids;
  issuer_ids.reserve(ecosystem_->authority_count());
  for (std::size_t ca = 0; ca < ecosystem_->authority_count(); ++ca) {
    issuer_ids.push_back(ocsp::CertId::for_issuer(
        ecosystem_->authority(ca).intermediate_cert()));
  }
  const auto& targets = ecosystem_->scan_targets();
  targets_.reserve(targets.size());
  for (const auto& t : targets) {
    // Certificates without an AIA OCSP URL cannot be scan targets; skipping
    // here (rather than dereferencing ocsp_urls.front() blindly) keeps a
    // CRL-only certificate in the population from crashing the campaign.
    if (!t.cert.extensions().supports_ocsp()) {
      MUSTAPLE_COUNT_L("mustaple_scan_targets_skipped_total", "component",
                       "hourly");
      continue;
    }
    auto url = net::parse_url(t.cert.extensions().ocsp_urls.front());
    if (!url.ok()) continue;
    ocsp::CertId cert_id = issuer_ids[t.ca_index];
    cert_id.serial = t.cert.serial();
    // Every probe of this target sends the same POST, so it goes through
    // the HTTP wire format here, once, instead of once per probe.
    net::HttpRequest post;
    post.method = "POST";
    post.headers.set("content-type", "application/ocsp-request");
    post.body = ocsp::OcspRequest::single(cert_id).encode_der();
    net::WireRequest request(std::move(url).take(), std::move(post));
    targets_.push_back(Target{std::move(cert_id), t.responder_index,
                              t.ca_index, std::move(request)});
  }
  stats_.resize(ecosystem_->responders().size() * net::kRegionCount);

  // Charge the retained scan-target state to "scan.targets" so campaign
  // artifacts can attribute resident bytes to it: the struct storage plus
  // what each target holds on the heap, namely its CertID buffers and its
  // prepared request (the header entry array, the OCSPRequest DER body, and
  // every URL, method, path and header string that outgrows its inline
  // buffer).
  std::size_t target_bytes = targets_.capacity() * sizeof(Target);
  for (const Target& t : targets_) {
    target_bytes += t.cert_id.issuer_name_hash.capacity() +
                    t.cert_id.issuer_key_hash.capacity() +
                    t.cert_id.serial.capacity() +
                    heap_bytes(t.request.url().scheme) +
                    heap_bytes(t.request.url().host) +
                    heap_bytes(t.request.url().path);
    if (!t.request.parsed().ok()) continue;
    const net::HttpRequest& request = t.request.parsed().value();
    target_bytes += heap_bytes(request.method) + heap_bytes(request.path) +
                    request.headers.entries().capacity() *
                        sizeof(net::HeaderMap::Entry) +
                    request.body.capacity();
    for (const auto& [name, value] : request.headers.entries()) {
      target_bytes += heap_bytes(name) + heap_bytes(value);
    }
  }
  targets_tally_.record(target_bytes);

  if (config_.validate_responses) {
    memo_.resize(targets_.size());
    memo_counter_->record_alloc(memo_.capacity() * sizeof(CheckMemo));
  }
}

HourlyScanner::~HourlyScanner() {
  std::size_t resident = memo_.capacity() * sizeof(CheckMemo);
  for (const CheckMemo& memo : memo_) resident += memo.charged_bytes;
  if (resident > 0) memo_counter_->record_free(resident);
}

HourlyScanner::ProbeOutcome HourlyScanner::execute_probe(
    std::size_t target_index, net::Region region, std::uint64_t ordinal) {
  const Target& target = targets_[target_index];
  ProbeOutcome outcome;
  outcome.result = ecosystem_->network().http_request_probe(
      region, target.request, ordinal);
  // The slot keeps only what accumulate_probe reads: the body and headers
  // are released here, on the worker, once the body is checked.
  util::Bytes body = std::move(outcome.result.response.body);
  outcome.result.response.headers = net::HeaderMap();
  if (!outcome.result.success() || !config_.validate_responses) {
    return outcome;
  }

  // The body is compared with the last one this target returned, size
  // first, then bytes; only a different body is verified and linted.
  CheckMemo& memo = memo_[target_index];
  outcome.memo_hit = memo.body == body;
  if (!outcome.memo_hit) check_body(target, memo, std::move(body));
  outcome.verdict =
      ocsp::apply_time_checks(memo.verdict, ecosystem_->network().now());
  outcome.validated = true;
  outcome.findings = memo.findings;
  return outcome;
}

void HourlyScanner::check_body(const Target& target, CheckMemo& memo,
                               util::Bytes body) {
  const x509::Certificate& issuer =
      ecosystem_->authority(target.ca_index).intermediate_cert();
  memo.verdict = ocsp::verify_ocsp_response_static(body, target.cert_id,
                                                   issuer.public_key());
  if (config_.lint_responses) {
    // Lint runs clock-free (no Context::now), so the findings, like the
    // static verdict, hold for as long as the body does.
    lint::Context ctx;
    ctx.issuer = &issuer;
    ctx.requested_serial = target.cert_id.serial;
    lint::Artifact artifact = lint::Artifact::ocsp_response(
        ecosystem_->responders()[target.responder_index].host,
        std::move(body), ctx);
    memo.findings = std::make_shared<const std::vector<lint::Finding>>(
        lint::lint_artifact(lint::RuleRegistry::builtin(), artifact));
    body = std::move(artifact.der);
  }
  memo.body = std::move(body);

  // Workers replace entries concurrently; the counter is atomic.
  const std::size_t charged = memo.charged_bytes;
  memo.charged_bytes = memo.body->capacity() +
                       heap_bytes(memo.verdict.error_code) +
                       (memo.findings ? heap_bytes(*memo.findings) : 0);
  if (charged > 0) memo_counter_->record_free(charged);
  memo_counter_->record_alloc(memo.charged_bytes);
}

void HourlyScanner::accumulate_probe(const Target& target, net::Region region,
                                     const ProbeOutcome& outcome,
                                     StepTotals& totals) {
  const std::size_t region_idx = static_cast<std::size_t>(region);
  ResponderRegionStats& stats =
      stats_[target.responder_index * net::kRegionCount + region_idx];

  const std::size_t cell =
      target.responder_index * net::kRegionCount + region_idx;
  ++stats.requests;
  ++totals.requests[region_idx];
  ++step_requests_[cell];
  MUSTAPLE_COUNT("mustaple_scan_probes_total");
  MUSTAPLE_COUNT_ENUM("mustaple_scan_requests_total", "region", region,
                      net::kRegionCount, net::to_string(region));
  // One probe = one trace unit: the step's trace id plus the probe's
  // campaign-wide ordinal. The ordinal is maintained unconditionally (not
  // inside the trace macro) because it also keys the counter-based latency
  // sample — obs-on and obs-off builds must draw identical jitter.
  const std::uint64_t probe_id = ++probe_counter_;
  MUSTAPLE_TRACE_SCOPE(trace_scope,
                       (obs::TraceContext{step_trace_id_, probe_id}));
#if !MUSTAPLE_OBS_ENABLED
  (void)probe_id;
#endif
  // Replay the fetch's observability effects (net counters, latency
  // histogram, trace span) here, in canonical probe order, so the metric
  // and trace streams are byte-identical to a single-threaded run.
  ecosystem_->network().record_fetch(region, target.request.url(),
                                     outcome.result);

  const net::FetchResult& result = outcome.result;
  if (!result.success()) {
    switch (result.error) {
      case net::TransportError::kDnsFailure:
        ++stats.dns_failures;
        break;
      case net::TransportError::kTcpFailure:
        ++stats.tcp_failures;
        break;
      case net::TransportError::kTlsCertInvalid:
        ++stats.tls_failures;
        break;
      case net::TransportError::kNone:
        ++stats.http_errors;  // reached, but non-200
        break;
    }
    return;
  }

  ++stats.http_successes;
  ++totals.successes[region_idx];
  ++step_successes_[cell];
  ++totals.responses_200;
  MUSTAPLE_COUNT_ENUM("mustaple_scan_successes_total", "region", region,
                      net::kRegionCount, net::to_string(region));

  if (!outcome.validated) return;
  (outcome.memo_hit ? memo_hits_ : memo_misses_)
      .fetch_add(1, std::memory_order_relaxed);
  // Lint findings replay here, in canonical probe order, so the report (and
  // its obs counters) is byte-identical at every thread count.
  if (outcome.findings) lint_report_.add(*outcome.findings);

  const util::SimTime now = ecosystem_->network().now();
  const ocsp::VerifiedResponse& verdict = outcome.verdict;

  if ([[maybe_unused]] const char* cause =
          validation_failure_cause(verdict.outcome)) {
    MUSTAPLE_COUNT_ENUM("mustaple_scan_validation_failures_total", "cause",
                        verdict.outcome, ocsp::kCheckOutcomeCount, cause);
  }
  switch (verdict.outcome) {
    case ocsp::CheckOutcome::kUnparseable:
      ++totals.unparseable;
      return;
    case ocsp::CheckOutcome::kNotSuccessful:
      // tryLater etc.: parsed but unusable; the paper folds these into the
      // malformed/unusable bucket only when unparseable, so just return.
      return;
    case ocsp::CheckOutcome::kSerialMismatch:
      ++totals.serial_mismatch;
      return;
    case ocsp::CheckOutcome::kBadSignature:
      ++totals.bad_signature;
      return;
    case ocsp::CheckOutcome::kNonceMismatch:
      return;  // scanner sends no nonce; unreachable, but classified
    case ocsp::CheckOutcome::kNotYetValid:
    case ocsp::CheckOutcome::kExpired:
    case ocsp::CheckOutcome::kOk:
      break;  // structurally fine: continue into quality accounting
  }
  if (verdict.outcome == ocsp::CheckOutcome::kOk) {
    ++stats.usable_responses;
    MUSTAPLE_COUNT("mustaple_scan_probes_usable_total");
  }
  if (verdict.outcome == ocsp::CheckOutcome::kNotYetValid) {
    ++stats.future_this_update;
  }
  if (verdict.outcome == ocsp::CheckOutcome::kExpired) {
    ++stats.expired_next_update;
  }

  // Quality accounting (Figs 6-9).
  stats.certs_per_response.add(static_cast<double>(verdict.num_certs));
  stats.serials_per_response.add(static_cast<double>(verdict.num_serials));
  ++stats.validity_samples;
  if (verdict.next_update) {
    stats.validity_seconds.add(static_cast<double>(
        (*verdict.next_update - verdict.this_update).seconds));
  } else {
    ++stats.blank_next_update;
  }
  stats.margin_seconds.add(
      static_cast<double>((now - verdict.this_update).seconds));

  // producedAt tracking (§5.4).
  const std::int64_t produced = verdict.produced_at.unix_seconds;
  if (now.unix_seconds - produced > kCachedThresholdSeconds) {
    ++stats.cached_observations;
  }
  if (stats.last_produced_at != INT64_MIN && produced != stats.last_produced_at) {
    if (produced < stats.last_produced_at) {
      ++stats.produced_regressions;
    } else {
      stats.produced_at_deltas.add(
          static_cast<double>(produced - stats.last_produced_at));
    }
  }
  stats.last_produced_at = produced;
  stats.last_observed_at = now.unix_seconds;
}

util::ShardedCacheStats HourlyScanner::validation_cache_stats() const {
  // Lookups is derived, so a mid-campaign reader never sees it disagree
  // with the split.
  util::ShardedCacheStats stats;
  stats.hits = memo_hits_.load(std::memory_order_relaxed);
  stats.misses = memo_misses_.load(std::memory_order_relaxed);
  stats.lookups = stats.hits + stats.misses;
  return stats;
}

util::ShardedCacheStats HourlyScanner::lint_cache_stats() const {
  return config_.lint_responses ? validation_cache_stats()
                                : util::ShardedCacheStats{};
}

void HourlyScanner::run() {
  if (ran_) throw std::logic_error("HourlyScanner::run called twice");
  ran_ = true;

  const util::SimTime start = ecosystem_->config().campaign_start;
  const util::SimTime end = ecosystem_->config().campaign_end;
  net::EventLoop& loop = ecosystem_->network().loop();

  const std::size_t thread_count =
      config_.threads > 0 ? config_.threads : util::ThreadPool::env_threads(1);
  util::ThreadPool pool(thread_count);

  if (config_.interval.seconds > 0) {
    steps_planned_.store(
        config_.max_steps != 0
            ? config_.max_steps
            : static_cast<std::uint64_t>((end - start).seconds /
                                         config_.interval.seconds) +
                  1,
        std::memory_order_relaxed);
  }

  OBS_PROF_SCOPE("scan.campaign");
  MUSTAPLE_LOG_INFO("scan", "campaign starting",
                    obs::field("targets", targets_.size()),
                    obs::field("responders", responder_count()),
                    obs::field("interval_s", config_.interval.seconds),
                    obs::field("threads", pool.threads()),
                    obs::field("from", util::format_time(start)),
                    obs::field("to", util::format_time(end)));

  std::size_t step_count = 0;
  for (util::SimTime t = start; t < end; t = t + config_.interval) {
    if (config_.max_steps != 0 && step_count >= config_.max_steps) break;
    ++step_count;
#if MUSTAPLE_OBS_ENABLED
    step_trace_id_ = obs::next_trace_id();
#endif
    OBS_PROF_SCOPE("scan.step");
    loop.run_until(t);
    MUSTAPLE_TRACE_INSTANT("scan-step", "scan", t,
                           obs::TraceLog::kControlTrack,
                           {"step", std::to_string(step_count)});

    step_requests_.assign(stats_.size(), 0);
    step_successes_.assign(stats_.size(), 0);
    StepTotals totals;
    totals.when = t;

    // Phase 1 (parallel): execute every probe of the step into an outcome
    // slot addressed by canonical probe order p = region * targets +
    // target. Phase 2 (sequential): replay the accumulation over the slots
    // in canonical order. The same two phases run at every thread count, so
    // floating-point accumulation order — and with it every derived stat —
    // never depends on scheduling.
    const auto regions = net::all_regions();
    const std::uint64_t step_base = probe_counter_;
    std::vector<ProbeOutcome> outcomes(targets_.size() * net::kRegionCount);
    // Workers attach their probe scopes under the coordinator's open
    // "scan.fanout" phase via an explicit parent token, so the profile path
    // (...scan.step;scan.fanout;scan.execute_probe) is identical whether a
    // probe ran inline or on a pool worker — the profiler's merge is
    // thread-count-invariant.
    {
      OBS_PROF_SCOPE("scan.fanout");
      const auto prof_parent = OBS_PROF_CURRENT();
      pool.parallel_for_chunks(
          targets_.size(), [&](std::size_t begin, std::size_t end) {
            // One scope per pool chunk, charged with its probe count: the
            // profile counts probes, the clocks are read once per chunk.
            OBS_PROF_TASK_SCOPE(prof_parent, "scan.execute_probe",
                                (end - begin) * net::kRegionCount);
            // Target-major: each target's regions run in order on this
            // worker, so only this worker touches the target's memo entry.
            for (std::size_t t = begin; t < end; ++t) {
              for (std::size_t g = 0; g < net::kRegionCount; ++g) {
                const std::size_t p = g * targets_.size() + t;
                outcomes[p] = execute_probe(t, regions[g], step_base + p + 1);
              }
            }
          });
    }
    {
      OBS_PROF_SCOPE("scan.accumulate");
      for (std::size_t p = 0; p < outcomes.size(); ++p) {
        const net::Region region = regions[p / targets_.size()];
        const Target& target = targets_[p % targets_.size()];
        accumulate_probe(target, region, outcomes[p], totals);
#if MUSTAPLE_OBS_ENABLED
        // Flight-recorder breadcrumb: the last-N probe ids in CANONICAL
        // order (accumulation, not fan-out), so a postmortem names the
        // probes the campaign had actually absorbed when it died.
        obs::default_flight_recorder().note_probe(step_base + p + 1);
#endif
      }
    }
    probes_done_.fetch_add(outcomes.size(), std::memory_order_relaxed);

    // Fig 4: per region, total Alexa domains whose responder answered
    // nothing this step (all probes to it failed from that region).
    const auto& responders = ecosystem_->responders();
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      std::size_t unable = 0;
      for (std::size_t r = 0; r < responders.size(); ++r) {
        const std::size_t cell = r * net::kRegionCount + g;
        if (step_requests_[cell] > 0 && step_successes_[cell] == 0) {
          unable += responders[r].alexa_domain_count;
        }
      }
      totals.domains_unable[g] = unable;
    }
    steps_.push_back(totals);
    steps_done_.store(step_count, std::memory_order_relaxed);
    MUSTAPLE_LOG_DEBUG("scan", "step complete",
                       obs::field("step", step_count),
                       obs::field("responses_200", totals.responses_200));
  }

  MUSTAPLE_LOG_INFO("scan", "campaign complete",
                    obs::field("steps", step_count),
                    obs::field("probes",
                               step_count * targets_.size() *
                                   net::kRegionCount));
}

std::size_t HourlyScanner::responders_with_outage() const {
  std::size_t count = 0;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    bool outage = false;
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      const auto& s = stats_[r * net::kRegionCount + g];
      if (s.requests > s.http_successes && s.http_successes > 0) {
        outage = true;
        break;
      }
    }
    if (outage) ++count;
  }
  return count;
}

std::size_t HourlyScanner::responders_never_reachable() const {
  std::size_t count = 0;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    bool any_success = false;
    bool any_request = false;
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      const auto& s = stats_[r * net::kRegionCount + g];
      any_success |= s.http_successes > 0;
      any_request |= s.requests > 0;
    }
    if (any_request && !any_success) ++count;
  }
  return count;
}

HourlyScanner::FailureTaxonomy HourlyScanner::persistent_failure_taxonomy()
    const {
  FailureTaxonomy taxonomy;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    // Pick the dominant cause across all fully-dead regions of this
    // responder (a responder counts once, as in the paper's lists).
    std::size_t dns = 0;
    std::size_t tcp = 0;
    std::size_t http = 0;
    std::size_t tls = 0;
    bool any_dead_region = false;
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      const auto& s = stats_[r * net::kRegionCount + g];
      if (s.requests == 0 || s.http_successes > 0) continue;
      any_dead_region = true;
      dns += s.dns_failures;
      tcp += s.tcp_failures;
      http += s.http_errors;
      tls += s.tls_failures;
    }
    if (!any_dead_region) continue;
    const std::size_t top = std::max(std::max(dns, tcp), std::max(http, tls));
    if (top == 0) continue;
    if (top == dns) {
      ++taxonomy.dns;
    } else if (top == tcp) {
      ++taxonomy.tcp;
    } else if (top == http) {
      ++taxonomy.http;
    } else {
      ++taxonomy.tls;
    }
  }
  return taxonomy;
}

std::size_t HourlyScanner::responders_region_persistent_fail() const {
  std::size_t count = 0;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    bool some_region_dead = false;
    bool some_region_alive = false;
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      const auto& s = stats_[r * net::kRegionCount + g];
      if (s.requests == 0) continue;
      if (s.http_successes == 0) {
        some_region_dead = true;
      } else {
        some_region_alive = true;
      }
    }
    if (some_region_dead && some_region_alive) ++count;
  }
  return count;
}

util::Cdf HourlyScanner::cdf_certs(net::Region region) const {
  util::Cdf cdf;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    const auto& s = stats(r, region);
    if (s.certs_per_response.count() > 0) cdf.add(s.certs_per_response.mean());
  }
  return cdf;
}

util::Cdf HourlyScanner::cdf_serials(net::Region region) const {
  util::Cdf cdf;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    const auto& s = stats(r, region);
    if (s.serials_per_response.count() > 0) {
      cdf.add(s.serials_per_response.mean());
    }
  }
  return cdf;
}

util::Cdf HourlyScanner::cdf_validity(net::Region region) const {
  util::Cdf cdf;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    const auto& s = stats(r, region);
    if (s.validity_samples == 0) continue;
    // A responder that EVER sends blank nextUpdate does so consistently
    // (paper footnote 14) — classify by majority.
    if (s.blank_next_update * 2 > s.validity_samples) {
      cdf.add_infinite();
    } else if (s.validity_seconds.count() > 0) {
      cdf.add(s.validity_seconds.mean());
    }
  }
  return cdf;
}

util::Cdf HourlyScanner::cdf_margin(net::Region region) const {
  util::Cdf cdf;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    const auto& s = stats(r, region);
    if (s.margin_seconds.count() > 0) cdf.add(s.margin_seconds.mean());
  }
  return cdf;
}

std::size_t HourlyScanner::responders_pre_generated() const {
  std::size_t count = 0;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    std::size_t cached = 0;
    std::size_t observed = 0;
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      const auto& s = stats_[r * net::kRegionCount + g];
      cached += s.cached_observations;
      observed += s.http_successes;
    }
    if (observed > 0 && cached * 2 > observed) ++count;
  }
  return count;
}

std::size_t HourlyScanner::responders_non_overlapping() const {
  std::size_t count = 0;
  for (std::size_t r = 0; r < responder_count(); ++r) {
    bool pre_generated = false;
    double update_period = 0.0;
    double validity = -1.0;
    bool blank = false;
    for (std::size_t g = 0; g < net::kRegionCount; ++g) {
      const auto& s = stats_[r * net::kRegionCount + g];
      if (s.http_successes > 0 && s.cached_observations * 2 > s.http_successes) {
        pre_generated = true;
      }
      if (s.produced_at_deltas.count() > 0) {
        update_period = std::max(update_period, s.produced_at_deltas.mean());
      }
      if (s.validity_seconds.count() > 0) {
        validity = s.validity_seconds.mean();
      }
      if (s.blank_next_update > 0) blank = true;
    }
    if (pre_generated && !blank && validity > 0 && update_period > 0 &&
        validity <= update_period * 1.05) {
      ++count;
    }
  }
  return count;
}

double HourlyScanner::failure_rate(net::Region region) const {
  const std::size_t g = static_cast<std::size_t>(region);
  std::size_t requests = 0;
  std::size_t successes = 0;
  for (const auto& step : steps_) {
    requests += step.requests[g];
    successes += step.successes[g];
  }
  if (requests == 0) return 0.0;
  return 1.0 - static_cast<double>(successes) / static_cast<double>(requests);
}

}  // namespace mustaple::measurement
