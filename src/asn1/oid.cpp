#include "asn1/oid.hpp"

#include <cstdlib>

#include "util/strings.hpp"

namespace mustaple::asn1 {

std::string Oid::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    if (i) out += '.';
    out += std::to_string(arcs_[i]);
  }
  return out;
}

util::Result<Oid> Oid::parse(const std::string& dotted) {
  const auto parts = util::split(dotted, '.');
  if (parts.size() < 2) {
    return util::Result<Oid>::failure("oid.too_few_arcs", dotted);
  }
  std::vector<std::uint32_t> arcs;
  arcs.reserve(parts.size());
  for (const auto& p : parts) {
    if (p.empty()) return util::Result<Oid>::failure("oid.empty_arc", dotted);
    std::uint64_t v = 0;
    for (char c : p) {
      if (c < '0' || c > '9') {
        return util::Result<Oid>::failure("oid.non_digit", dotted);
      }
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
      if (v > 0xffffffffULL) {
        return util::Result<Oid>::failure("oid.arc_overflow", dotted);
      }
    }
    arcs.push_back(static_cast<std::uint32_t>(v));
  }
  if (arcs[0] > 2 || (arcs[0] < 2 && arcs[1] > 39)) {
    return util::Result<Oid>::failure("oid.invalid_first_arcs", dotted);
  }
  return Oid(std::move(arcs));
}

void Oid::append_content(util::Bytes& out) const {
  if (arcs_.size() < 2) return;  // caller validates; empty = invalid
  auto put_base128 = [&out](std::uint64_t v) {
    std::uint8_t tmp[10];
    int n = 0;
    do {
      tmp[n++] = static_cast<std::uint8_t>(v & 0x7f);
      v >>= 7;
    } while (v != 0);
    for (int i = n - 1; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>(tmp[i] | (i ? 0x80 : 0x00)));
    }
  };
  put_base128(static_cast<std::uint64_t>(arcs_[0]) * 40 + arcs_[1]);
  for (std::size_t i = 2; i < arcs_.size(); ++i) put_base128(arcs_[i]);
}

util::Result<Oid> Oid::decode_content(util::BytesView content) {
  if (content.empty()) {
    return util::Result<Oid>::failure("oid.empty_content");
  }
  std::vector<std::uint32_t> arcs;
  std::uint64_t acc = 0;
  bool in_arc = false;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const std::uint8_t b = content[i];
    if (!in_arc && b == 0x80) {
      return util::Result<Oid>::failure("oid.leading_zero_septet");
    }
    acc = (acc << 7) | (b & 0x7f);
    if (acc > 0xffffffffULL) {
      return util::Result<Oid>::failure("oid.arc_overflow");
    }
    in_arc = (b & 0x80) != 0;
    if (!in_arc) {
      if (arcs.empty()) {
        // First encoded value packs the first two arcs.
        if (acc < 40) {
          arcs.push_back(0);
          arcs.push_back(static_cast<std::uint32_t>(acc));
        } else if (acc < 80) {
          arcs.push_back(1);
          arcs.push_back(static_cast<std::uint32_t>(acc - 40));
        } else {
          arcs.push_back(2);
          arcs.push_back(static_cast<std::uint32_t>(acc - 80));
        }
      } else {
        arcs.push_back(static_cast<std::uint32_t>(acc));
      }
      acc = 0;
    }
  }
  if (in_arc) {
    return util::Result<Oid>::failure("oid.truncated_arc");
  }
  return Oid(std::move(arcs));
}

namespace oids {

// Each accessor owns a function-local static (thread-safe init, no global
// init-order hazards).
#define MUSTAPLE_DEFINE_OID(name, ...)      \
  const Oid& name() {                       \
    static const Oid oid{__VA_ARGS__};      \
    return oid;                             \
  }

MUSTAPLE_DEFINE_OID(tls_feature, 1, 3, 6, 1, 5, 5, 7, 1, 24)
MUSTAPLE_DEFINE_OID(authority_info_access, 1, 3, 6, 1, 5, 5, 7, 1, 1)
MUSTAPLE_DEFINE_OID(aia_ocsp, 1, 3, 6, 1, 5, 5, 7, 48, 1)
MUSTAPLE_DEFINE_OID(aia_ca_issuers, 1, 3, 6, 1, 5, 5, 7, 48, 2)
MUSTAPLE_DEFINE_OID(crl_distribution_points, 2, 5, 29, 31)
MUSTAPLE_DEFINE_OID(basic_constraints, 2, 5, 29, 19)
MUSTAPLE_DEFINE_OID(subject_alt_name, 2, 5, 29, 17)
MUSTAPLE_DEFINE_OID(key_usage, 2, 5, 29, 15)
MUSTAPLE_DEFINE_OID(crl_reason, 2, 5, 29, 21)
MUSTAPLE_DEFINE_OID(common_name, 2, 5, 4, 3)
MUSTAPLE_DEFINE_OID(organization, 2, 5, 4, 10)
MUSTAPLE_DEFINE_OID(country, 2, 5, 4, 6)
MUSTAPLE_DEFINE_OID(sha256_with_rsa, 1, 2, 840, 113549, 1, 1, 11)
MUSTAPLE_DEFINE_OID(sha256, 2, 16, 840, 1, 101, 3, 4, 2, 1)
MUSTAPLE_DEFINE_OID(sha1, 1, 3, 14, 3, 2, 26)
MUSTAPLE_DEFINE_OID(rsa_encryption, 1, 2, 840, 113549, 1, 1, 1)
MUSTAPLE_DEFINE_OID(ocsp_basic, 1, 3, 6, 1, 5, 5, 7, 48, 1, 1)
MUSTAPLE_DEFINE_OID(ocsp_nonce, 1, 3, 6, 1, 5, 5, 7, 48, 1, 2)
// 1.3.6.1.4.1.99999.1: private-enterprise arc used to tag simulation-grade
// keyed-hash signatures so they can never be confused with RSA.
MUSTAPLE_DEFINE_OID(sim_hash_sig, 1, 3, 6, 1, 4, 1, 99999, 1)

#undef MUSTAPLE_DEFINE_OID

}  // namespace oids

}  // namespace mustaple::asn1
