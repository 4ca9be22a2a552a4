// Single-thread replays of the program's layer entry points over a
// workload's own inputs: the traced run's cost-per-call numbers. Each layer
// is timed as a batch (total / calls), so sub-microsecond layers are not
// swamped by clock reads, and shows up in the trace as one "replay.*" span.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "ca/authority.hpp"
#include "ca/responder.hpp"
#include "ocsp/types.hpp"

namespace mustaple::bench {

/// One OCSP exchange as both transports carry it.
struct ReplayItem {
  ocsp::CertId id;
  std::optional<util::Bytes> nonce;
  util::Bytes request_der;
  std::string get_path;   ///< "/" + percent-encoded base64 (RFC 6960 A.1)
  util::Bytes get_wire;   ///< serialized HTTP GET
  util::Bytes post_wire;  ///< serialized HTTP POST
  std::string host;
  ca::OcspResponder* responder = nullptr;
  const ca::CertificateAuthority* authority = nullptr;
};

ReplayItem make_replay_item(const ocsp::CertId& id,
                            std::optional<util::Bytes> nonce,
                            const std::string& host,
                            ca::OcspResponder& responder,
                            const ca::CertificateAuthority& authority);

/// Serializes an OCSP-over-HTTP request for `request_der`: a GET whose path
/// is the percent-encoded base64 request (RFC 6960 A.1, as real clients
/// send it), or a POST carrying the DER. `extra` headers are appended.
util::Bytes request_wire(
    const std::string& host, const util::Bytes& request_der, bool get,
    const std::vector<std::pair<std::string, std::string>>& extra = {});

/// Runs `fn(i)` over i in [0, n) in passes until at least 50 ms have gone
/// by; returns microseconds per call and adds a span to `trace`.
template <typename Fn>
double time_per_call(TraceWriter& trace, const std::string& layer,
                     std::size_t n, Fn&& fn) {
  if (n == 0) return 0.0;
  fn(0);  // first touch outside the timer
  constexpr std::uint64_t kMinNs = 50'000'000;
  const std::uint64_t start = now_ns();
  std::uint64_t calls = 0;
  std::uint64_t end = start;
  do {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    calls += n;
    end = now_ns();
  } while (end - start < kMinNs);
  const double us = ns_to_us(static_cast<double>(end - start)) /
                    static_cast<double>(calls);
  trace.span("replay." + layer, kReplayTrack, start, end,
             "\"calls\": " + std::to_string(calls) +
                 ", \"us_per_call\": " + std::to_string(us));
  return us;
}

/// Cost per call, keyed by per-layer metric name (net.http_parse_us,
/// ocsp.request_parse_us, ocsp.get_path_parse_us, ca.build_response_us,
/// ca.handle_us, crypto.sign_us, crypto.sha256_us, ocsp.verify_static_us,
/// ocsp.time_checks_us, lint.lint_us, net.http_serialize_us,
/// net.wire_cache.hit_us). ca.handle_us feeds ca.lock_wait_us and is not
/// itself reported.
std::map<std::string, double> replay_layers(std::vector<ReplayItem>& items,
                                            util::SimTime now,
                                            TraceWriter& trace);

}  // namespace mustaple::bench
