#include "net/dns.hpp"

namespace mustaple::net {

void DnsZone::add_a(std::string_view name, Address address) {
  a_records_.insert_or_assign(util::to_lower(name), address);
}

void DnsZone::add_cname(std::string_view name, std::string_view target) {
  cnames_.insert_or_assign(util::to_lower(name), util::to_lower(target));
}

bool DnsZone::has_name(std::string_view name) const {
  return a_records_.count(name) > 0 || cnames_.count(name) > 0;
}

bool DnsZone::has_address(Address address) const {
  for (const auto& [name, assigned] : a_records_) {
    if (assigned == address) return true;
  }
  return false;
}

util::Result<Address> DnsZone::resolve(std::string_view name) const {
  using R = util::Result<Address>;
  std::string_view current = name;
  for (int hop = 0; hop < 8; ++hop) {
    const auto a = a_records_.find(current);
    if (a != a_records_.end()) return a->second;
    const auto cname = cnames_.find(current);
    if (cname == cnames_.end()) {
      return R::failure("dns.nxdomain", util::to_lower(current));
    }
    current = cname->second;
  }
  return R::failure("dns.cname_loop", std::string(name));
}

std::string_view DnsZone::canonical_name(std::string_view name) const {
  std::string_view current = name;
  for (int hop = 0; hop < 8; ++hop) {
    const auto cname = cnames_.find(current);
    if (cname == cnames_.end()) return current;
    current = cname->second;
  }
  return current;
}

}  // namespace mustaple::net
