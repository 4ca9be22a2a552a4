// Fault injection. Reproduces the failure taxonomy of paper §5.2:
//   * persistent per-(host, region) failures: DNS NXDOMAIN (16 responders),
//     TCP connect failure (4), HTTP 4xx/5xx (8), invalid TLS certificate on
//     an HTTPS responder (1);
//   * scheduled outage windows, global or regional, transient (hours) —
//     e.g. the Comodo outage of Apr 25 seen only from Oregon/Sydney/Seoul,
//     the Digicert Aug 27 outage seen only from Seoul;
//   * gradual permanent death (the wayport.net responders that "had become
//     unavailable gradually", Fig 3's first-month decline).
//
// Faults key on the *canonical* DNS name, so aliases inherit the outage of
// their CNAME target exactly as the paper observed.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/vantage.hpp"
#include "util/sim_time.hpp"

namespace mustaple::net {

/// How a faulted request fails.
enum class FaultMode : std::uint8_t {
  kDnsNxDomain,
  kTcpConnectFailure,
  kHttp404,
  kHttp500,
  kHttp503,
  kTlsCertInvalid,  ///< HTTPS responder served with a broken certificate
};

const char* to_string(FaultMode mode);

/// A fault rule. With no window set, the rule is persistent; with no region
/// set, it applies from every vantage point.
struct FaultRule {
  std::string canonical_host;
  FaultMode mode = FaultMode::kTcpConnectFailure;
  /// Empty = all regions (global outage); otherwise only these vantage
  /// points see the failure.
  std::set<Region> regions;
  /// Active window; nullopt start/end = open-ended on that side.
  std::optional<util::SimTime> window_start;
  std::optional<util::SimTime> window_end;

  bool applies(const std::string& host, Region from, util::SimTime now) const;
};

/// All scheduled faults for a run; evaluated on every simulated request.
class FaultPlan {
 public:
  void add(FaultRule rule);

  /// First matching rule in insertion order, or nullopt when the request
  /// should succeed. Only the probed host's rules are scanned: no other
  /// rule can match, so the first match is the same as a full scan's.
  std::optional<FaultMode> check(const std::string& canonical_host,
                                 Region from, util::SimTime now) const;

  std::size_t size() const { return size_; }

 private:
  /// canonical host -> that host's rules in insertion order. Lookup only,
  /// never iterated, so the hash order cannot reach any output.
  std::unordered_map<std::string, std::vector<FaultRule>> rules_;
  std::size_t size_ = 0;
};

}  // namespace mustaple::net
