#include "net/fault.hpp"

namespace mustaple::net {

const char* to_string(FaultMode mode) {
  switch (mode) {
    case FaultMode::kDnsNxDomain:
      return "dns-nxdomain";
    case FaultMode::kTcpConnectFailure:
      return "tcp-connect-failure";
    case FaultMode::kHttp404:
      return "http-404";
    case FaultMode::kHttp500:
      return "http-500";
    case FaultMode::kHttp503:
      return "http-503";
    case FaultMode::kTlsCertInvalid:
      return "tls-cert-invalid";
  }
  return "?";
}

bool FaultRule::applies(std::string_view host, Region from,
                        util::SimTime now) const {
  if (!util::equals_ignore_case(host, canonical_host)) return false;
  if (!regions.empty() && regions.count(from) == 0) return false;
  if (window_start && now < *window_start) return false;
  if (window_end && now >= *window_end) return false;
  return true;
}

void FaultPlan::add(FaultRule rule) {
  rule.canonical_host = util::to_lower(rule.canonical_host);
  std::vector<FaultRule>& host_rules = rules_[rule.canonical_host];
  host_rules.push_back(std::move(rule));
  ++size_;
}

std::optional<FaultMode> FaultPlan::check(std::string_view canonical_host,
                                          Region from,
                                          util::SimTime now) const {
  const auto host = rules_.find(canonical_host);
  if (host == rules_.end()) return std::nullopt;
  for (const FaultRule& rule : host->second) {
    if (rule.applies(canonical_host, from, now)) return rule.mode;
  }
  return std::nullopt;
}

}  // namespace mustaple::net
