// Simulated DNS. Supports CNAME chains (the paper found eight Comodo OCSP
// responders whose outage was shared because their names CNAME'd to
// ocsp.comodoca.com) and address records shared across names (six more
// resolved to the same IP).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/hash.hpp"
#include "util/result.hpp"
#include "util/strings.hpp"

namespace mustaple::net {

/// A simulated IPv4-ish address.
using Address = std::uint32_t;

enum class DnsError {
  kNxDomain,
  kCnameLoop,
};

/// FNV-1a over the name's ASCII-lowercased bytes: util::fnv1a64 of
/// util::to_lower(host), without the copy.
constexpr std::uint64_t host_hash(std::string_view host) {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const char c : host) {
    h ^= util::ascii_lower(c);
    h *= util::kFnvPrime;
  }
  return h;
}

/// Host names compare case-insensitively (RFC 4343). Every host-keyed table
/// of the simulated network stores lowercase keys and looks them up through
/// these transparent functors, so a lookup in any case copies nothing.
struct HostHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view host) const {
    return static_cast<std::size_t>(host_hash(host));
  }
};
struct HostEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return util::equals_ignore_case(a, b);
  }
};
/// Lookup only, never iterated in an order that reaches any output.
template <typename Value>
using HostMap = std::unordered_map<std::string, Value, HostHash, HostEqual>;

class DnsZone {
 public:
  void add_a(std::string_view name, Address address);
  void add_cname(std::string_view name, std::string_view target);
  bool has_name(std::string_view name) const;
  /// Whether any A record already maps to `address` (used by the network's
  /// auto-assignment to probe past collisions).
  bool has_address(Address address) const;

  /// Follows CNAMEs (max 8 hops) to an address.
  util::Result<Address> resolve(std::string_view name) const;

  /// The canonical (post-CNAME) name, used by the fault engine so an outage
  /// of the canonical host takes down every alias — the Comodo pattern.
  /// Views `name` itself when it is no alias (in the case it was given),
  /// else the zone's lowercase CNAME target; compare it case-insensitively.
  std::string_view canonical_name(std::string_view name) const;

 private:
  HostMap<Address> a_records_;
  HostMap<std::string> cnames_;
};

}  // namespace mustaple::net
