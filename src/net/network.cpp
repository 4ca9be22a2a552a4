#include "net/network.hpp"

#include <cmath>

#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mustaple::net {

const char* to_string(TransportError error) {
  switch (error) {
    case TransportError::kNone:
      return "none";
    case TransportError::kDnsFailure:
      return "dns-failure";
    case TransportError::kTcpFailure:
      return "tcp-failure";
    case TransportError::kTlsCertInvalid:
      return "tls-cert-invalid";
  }
  return "?";
}

std::optional<TransportError> transport_error_from_string(
    std::string_view text) {
  for (TransportError error :
       {TransportError::kNone, TransportError::kDnsFailure,
        TransportError::kTcpFailure, TransportError::kTlsCertInvalid}) {
    if (text == to_string(error)) return error;
  }
  return std::nullopt;
}

const char* error_kind_label(TransportError error, int status_code) {
  switch (error) {
    case TransportError::kDnsFailure:
      return "dns";
    case TransportError::kTcpFailure:
      return "tcp";
    case TransportError::kTlsCertInvalid:
      return "tls";
    case TransportError::kNone:
      break;
  }
  return status_code >= 400 ? "http" : nullptr;
}

WireRequest::WireRequest(Url url, HttpRequest request)
    : url_(std::move(url)), parsed_([&] {
        request.path = url_.path;
        request.headers.set("host", url_.host);
        return HttpRequest::parse(request.serialize());
      }()) {}

void Network::set_host_region(std::string_view canonical_host,
                              Region region) {
  host_regions_.insert_or_assign(util::to_lower(canonical_host), region);
}

void Network::register_service(const std::string& host, std::uint16_t port,
                               HttpHandler handler) {
  std::string name = util::to_lower(host);
  if (!dns_.has_name(name)) {
    // Auto-assign a deterministic address so registration is one call.
    // FNV-1a (not std::hash, whose result is implementation-defined and
    // would make campaigns non-reproducible across standard libraries),
    // with linear-congruential probing past collisions so two hosts never
    // silently share an auto-assigned address. Hosts that should share an
    // address (the paper's six-responders-one-IP case) use dns().add_a
    // explicitly before registration.
    Address address =
        static_cast<Address>(util::fnv1a64(name) & 0xffffffffu);
    while (dns_.has_address(address)) {
      address = address * 1664525u + 1013904223u;  // full-period LCG step
    }
    dns_.add_a(name, address);
  }
  services_[std::move(name)].insert_or_assign(port, std::move(handler));
}

bool Network::has_service(const std::string& host, std::uint16_t port) const {
  return find_service(host, port) != nullptr;
}

const HttpHandler* Network::find_service(std::string_view host,
                                         std::uint16_t port) const {
  const auto ports = services_.find(host);
  if (ports == services_.end()) return nullptr;
  const auto handler = ports->second.find(port);
  return handler == ports->second.end() ? nullptr : &handler->second;
}

double sample_probe_latency_ms(std::uint64_t latency_seed, Region from,
                               Region host_region, util::SimTime when,
                               std::uint64_t ordinal) {
  // Counter-based sampling: the jitter is a pure function of the key, so a
  // probe draws the same latency no matter which thread executes it or how
  // many other probes ran first. A throwaway Rng seeded from the mixed key
  // shapes the draw; it never shares state with anything.
  std::uint64_t key = latency_seed;
  key = util::hash_combine(key, static_cast<std::uint64_t>(from));
  key = util::hash_combine(key, static_cast<std::uint64_t>(host_region));
  key = util::hash_combine(key,
                           static_cast<std::uint64_t>(when.unix_seconds));
  key = util::hash_combine(key, ordinal);
  util::Rng rng(key);
  const double rtt = base_rtt_ms(from, host_region);
  // TCP handshake + request/response: ~2 RTT, with mild jitter.
  return std::max(1.0, rng.normal_approx(2.0 * rtt, 0.15 * rtt));
}

double Network::sample_latency_ms(Region from, std::string_view host,
                                  std::uint64_t ordinal) const {
  Region host_region = Region::kVirginia;
  const auto it = host_regions_.find(host);
  if (it != host_regions_.end()) host_region = it->second;
  // The canonical host name is folded into the seed (rather than passed as
  // a field) so two hosts in the same region still jitter independently.
  const std::uint64_t keyed_seed =
      util::hash_combine(latency_seed_, host_hash(host));
  return sample_probe_latency_ms(keyed_seed, from, host_region, loop_->now(),
                                 ordinal);
}

FetchResult Network::http_request(Region from, const Url& url,
                                  HttpRequest request) {
  FetchResult result = http_request_probe(
      from, WireRequest(url, std::move(request)), fetch_sequence_++);
  record_fetch(from, url, result);
  return result;
}

FetchResult Network::http_request_probe(Region from, const Url& url,
                                        HttpRequest request,
                                        std::uint64_t probe_ordinal) const {
  return http_request_probe(from, WireRequest(url, std::move(request)),
                            probe_ordinal);
}

void Network::record_fetch(Region from, const Url& url,
                           const FetchResult& result) {
#if MUSTAPLE_OBS_ENABLED
  MUSTAPLE_COUNT("mustaple_net_fetch_total");
  MUSTAPLE_COUNT_ENUM("mustaple_net_fetch_by_region_total", "region", from,
                      kRegionCount, to_string(from));
  MUSTAPLE_OBSERVE("mustaple_net_fetch_latency_ms", result.latency_ms);
  const char* kind =
      error_kind_label(result.error, result.response.status_code);
  if (kind) {
    // One kind per transport error; kNone has one only as "http".
    MUSTAPLE_COUNT_ENUM("mustaple_net_fetch_errors_total", "kind",
                        result.error, kTransportErrorCount, kind);
    MUSTAPLE_LOG_DEBUG("net", "fetch failed", obs::field("host", url.host),
                       obs::field("kind", kind),
                       obs::field("region", to_string(from)),
                       obs::field("status", result.response.status_code));
  }
  // Lay the exchange on the simulated clock: one track per vantage point,
  // the span's duration being the modelled network latency. The probe's
  // TraceContext (restored by the EventLoop or set by the scanner) rides
  // along so Perfetto can follow one probe across layers.
  if (obs::default_trace_log().enabled()) {
    obs::default_trace_log().complete(
        url.host, "net", loop_->now(), result.latency_ms,
        static_cast<std::uint32_t>(from),
        {{"region", to_string(from)},
         {"outcome", kind ? kind : "ok"},
         {"status", std::to_string(result.response.status_code)}});
  }
#else
  (void)from;
  (void)url;
  (void)result;
#endif
}

FetchResult Network::http_request_probe(Region from,
                                        const WireRequest& request,
                                        std::uint64_t ordinal) const {
  FetchResult result;
  const Url& url = request.url();
  // Routing runs per probe (a test or campaign may re-register a service
  // or add a fault mid-run) but builds no string: every lookup below takes
  // the canonical name as a view.
  const std::string_view canonical = dns_.canonical_name(url.host);
  result.latency_ms = sample_latency_ms(from, canonical, ordinal);

  // Injected faults are evaluated on the canonical name so CNAME aliases
  // share their target's outages (the Comodo pattern, §5.2).
  const auto fault = faults_.check(canonical, from, loop_->now());
  if (fault) {
    switch (*fault) {
      case FaultMode::kDnsNxDomain:
        result.error = TransportError::kDnsFailure;
        return result;
      case FaultMode::kTcpConnectFailure:
        result.error = TransportError::kTcpFailure;
        return result;
      case FaultMode::kTlsCertInvalid:
        if (url.scheme == "https") {
          result.error = TransportError::kTlsCertInvalid;
          return result;
        }
        break;  // plain HTTP ignores the bad certificate
      case FaultMode::kHttp404:
        result.response = HttpResponse::make(404, default_reason(404), {}, "");
        return result;
      case FaultMode::kHttp500:
        result.response = HttpResponse::make(500, default_reason(500), {}, "");
        return result;
      case FaultMode::kHttp503:
        result.response = HttpResponse::make(503, default_reason(503), {}, "");
        return result;
    }
  }

  if (!dns_.resolve(url.host).ok()) {
    result.error = TransportError::kDnsFailure;
    return result;
  }

  const HttpHandler* service = find_service(canonical, url.port);
  if (service == nullptr) {
    result.error = TransportError::kTcpFailure;
    return result;
  }

  // The request went through the wire format once, when it was built;
  // a message the parser rejected is the server's 400.
  if (!request.parsed().ok()) {
    result.response = HttpResponse::make(400, default_reason(400), {}, "");
    return result;
  }
  result.response = (*service)(request.parsed().value(), loop_->now(), from);
  return result;
}

FetchResult Network::http_post(Region from, const Url& url, util::Bytes body,
                               const std::string& content_type) {
  HttpRequest request;
  request.method = "POST";
  request.body = std::move(body);
  request.headers.set("content-type", content_type);
  return http_request(from, url, std::move(request));
}

FetchResult Network::http_get(Region from, const Url& url) {
  HttpRequest request;
  request.method = "GET";
  return http_request(from, url, std::move(request));
}

}  // namespace mustaple::net
