// The simulated internet: DNS + fault plan + latency model + registered HTTP
// services (OCSP responders, CRL servers, web servers). A request from a
// vantage point either fails in one of the §5.2 ways or reaches the service
// handler and returns its HTTP response, with a region-dependent latency.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "net/dns.hpp"
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/http.hpp"
#include "net/url.hpp"
#include "net/vantage.hpp"
#include "util/hash.hpp"
#include "util/sim_time.hpp"

namespace mustaple::net {

/// Transport-level failure classification for one fetch. HTTP-level errors
/// (4xx/5xx) are NOT transport failures — the response comes back and the
/// caller inspects the status code, as the paper's client does.
enum class TransportError : std::uint8_t {
  kNone = 0,
  kDnsFailure,
  kTcpFailure,
  kTlsCertInvalid,
};

constexpr std::size_t kTransportErrorCount = 4;

const char* to_string(TransportError error);

/// Inverse of to_string; nullopt for unknown text.
std::optional<TransportError> transport_error_from_string(
    std::string_view text);

/// §5.2 failure-taxonomy metric label for one fetch outcome: "dns", "tcp",
/// "tls", "http" (reached but status >= 400), or nullptr for a clean fetch.
const char* error_kind_label(TransportError error, int status_code);

struct FetchResult {
  TransportError error = TransportError::kNone;
  HttpResponse response;  ///< valid only when error == kNone
  double latency_ms = 0.0;

  /// The paper's "successful request": transport worked AND HTTP 200.
  bool success() const {
    return error == TransportError::kNone && response.status_code == 200;
  }
};

/// An HTTP service bound to host:port. Receives the request, the simulated
/// time, and the caller's region (responders can be region-sensitive).
using HttpHandler = std::function<HttpResponse(
    const HttpRequest&, util::SimTime now, Region from)>;

/// A request as the service at `url` receives it: `request` with the URL's
/// path and Host header set, serialized and parsed back once, so handlers
/// see an honestly parsed message. It keeps the URL it was built for. Build
/// one per distinct request and pass it to any number of exchanges;
/// concurrent exchanges share it read-only. A request the parser rejects
/// keeps its error and is answered 400 at exchange time, after the fault,
/// DNS and service checks.
class WireRequest {
 public:
  WireRequest(Url url, HttpRequest request);

  /// Where the request goes.
  const Url& url() const { return url_; }
  /// The parsed request, or the parse error.
  const util::Result<HttpRequest>& parsed() const { return parsed_; }

 private:
  Url url_;
  util::Result<HttpRequest> parsed_;
};

/// Counter-based latency sample: a pure function of its key, so concurrent
/// probes draw identical jitter no matter which thread or order executes
/// them — the foundation of the scanner's thread-count-independent output.
/// `ordinal` disambiguates multiple fetches to the same host at the same
/// simulated time from the same region.
double sample_probe_latency_ms(std::uint64_t latency_seed, Region from,
                               Region host_region, util::SimTime when,
                               std::uint64_t ordinal);

class Network {
 public:
  Network(EventLoop& loop, std::uint64_t seed)
      : loop_(&loop),
        latency_seed_(
            util::hash_combine(util::mix64(seed), util::fnv1a64("net.latency"))) {}

  DnsZone& dns() { return dns_; }
  const DnsZone& dns() const { return dns_; }
  FaultPlan& faults() { return faults_; }

  /// Hosting region per canonical host (affects latency); defaults to
  /// Virginia when unset. Host names match in any case, as in DNS.
  void set_host_region(std::string_view canonical_host, Region region);

  void register_service(const std::string& host, std::uint16_t port,
                        HttpHandler handler);
  bool has_service(const std::string& host, std::uint16_t port) const;

  /// Performs one synchronous HTTP exchange at the loop's current time.
  FetchResult http_request(Region from, const Url& url, HttpRequest request);

  /// Convenience: POST `body` to `url` with the given content type.
  FetchResult http_post(Region from, const Url& url, util::Bytes body,
                        const std::string& content_type);
  FetchResult http_get(Region from, const Url& url);

  /// The one exchange every fetch ends in, and the scanner's parallel
  /// fan-out entry point: (a) const — no Network state is touched, so
  /// concurrent calls are sound as long as the registered handlers are
  /// thread-safe — and (b) observability-free: no registry, trace, or log
  /// writes happen here. The caller passes a deterministic `probe_ordinal`
  /// for the latency sample and replays record_fetch() afterwards, in
  /// canonical probe order, so metric/trace output stays bit-identical
  /// across thread counts.
  FetchResult http_request_probe(Region from, const WireRequest& request,
                                 std::uint64_t probe_ordinal) const;
  /// The same, for a one-off request to `url`: builds its WireRequest first.
  FetchResult http_request_probe(Region from, const Url& url,
                                 HttpRequest request,
                                 std::uint64_t probe_ordinal) const;

  /// Emits the observability side effects of one fetch (counters, latency
  /// histogram, error counters, net trace span, debug log) against the
  /// loop's current time. http_request calls this inline; deferred-probe
  /// callers replay it at the step barrier.
  void record_fetch(Region from, const Url& url, const FetchResult& result);

  util::SimTime now() const { return loop_->now(); }
  EventLoop& loop() { return *loop_; }

 private:
  double sample_latency_ms(Region from, std::string_view host,
                           std::uint64_t ordinal) const;
  /// The handler bound to host:port, or nullptr.
  const HttpHandler* find_service(std::string_view host,
                                  std::uint16_t port) const;

  EventLoop* loop_;
  std::uint64_t latency_seed_;
  /// Ordinal dispenser for non-probe fetches (browser checks, staple
  /// refreshes, audits). Those all run on the coordinating thread, so a
  /// plain counter keeps them deterministic; parallel scanner probes pass
  /// explicit ordinals instead and never touch it.
  std::uint64_t fetch_sequence_ = 0;
  DnsZone dns_;
  FaultPlan faults_;
  HostMap<Region> host_regions_;
  HostMap<std::map<std::uint16_t, HttpHandler>> services_;  ///< host -> port
};

}  // namespace mustaple::net
