// ASN.1 OBJECT IDENTIFIER, plus the registry of OIDs this study cares about —
// most importantly the OCSP Must-Staple (TLS Feature) extension,
// 1.3.6.1.5.5.7.1.24, whose deployment the paper measures.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/bytes_view.hpp"
#include "util/result.hpp"

namespace mustaple::asn1 {

/// An object identifier as a list of arcs, e.g. {1,3,6,1,5,5,7,1,24}.
class Oid {
 public:
  Oid() = default;
  Oid(std::initializer_list<std::uint32_t> arcs) : arcs_(arcs) {}
  explicit Oid(std::vector<std::uint32_t> arcs) : arcs_(std::move(arcs)) {}

  const std::vector<std::uint32_t>& arcs() const { return arcs_; }
  bool empty() const { return arcs_.empty(); }

  /// Dotted-decimal form, "1.3.6.1.5.5.7.1.24".
  std::string to_string() const;

  /// Parses dotted-decimal; returns an error for malformed text or fewer
  /// than two arcs.
  static util::Result<Oid> parse(const std::string& dotted);

  /// Appends the DER content octets (without the tag/length header) to
  /// `out`; the DER writer calls it on its own buffer.
  void append_content(util::Bytes& out) const;

  /// Decodes DER content octets. The view overload is the implementation;
  /// the const-ref overload keeps temporaries (e.g. brace literals) legal —
  /// they live for the full call, unlike a view bound to an rvalue.
  static util::Result<Oid> decode_content(util::BytesView content);
  static util::Result<Oid> decode_content(const util::Bytes& content) {
    return decode_content(util::BytesView(content));
  }

  friend bool operator==(const Oid& a, const Oid& b) { return a.arcs_ == b.arcs_; }
  friend auto operator<=>(const Oid& a, const Oid& b) { return a.arcs_ <=> b.arcs_; }

 private:
  std::vector<std::uint32_t> arcs_;
};

/// Well-known OIDs used throughout the study.
namespace oids {
const Oid& tls_feature();            ///< 1.3.6.1.5.5.7.1.24 (OCSP Must-Staple)
const Oid& authority_info_access(); ///< 1.3.6.1.5.5.7.1.1 (AIA)
const Oid& aia_ocsp();               ///< 1.3.6.1.5.5.7.48.1 (id-ad-ocsp)
const Oid& aia_ca_issuers();         ///< 1.3.6.1.5.5.7.48.2
const Oid& crl_distribution_points(); ///< 2.5.29.31
const Oid& basic_constraints();      ///< 2.5.29.19
const Oid& subject_alt_name();       ///< 2.5.29.17
const Oid& key_usage();              ///< 2.5.29.15
const Oid& crl_reason();             ///< 2.5.29.21
const Oid& common_name();            ///< 2.5.4.3
const Oid& organization();           ///< 2.5.4.10
const Oid& country();                ///< 2.5.4.6
const Oid& sha256_with_rsa();        ///< 1.2.840.113549.1.1.11
const Oid& sha256();                 ///< 2.16.840.1.101.3.4.2.1
const Oid& sha1();                   ///< 1.3.14.3.2.26
const Oid& rsa_encryption();         ///< 1.2.840.113549.1.1.1
const Oid& ocsp_basic();             ///< 1.3.6.1.5.5.7.48.1.1
const Oid& ocsp_nonce();             ///< 1.3.6.1.5.5.7.48.1.2
const Oid& sim_hash_sig();           ///< private-arc OID for the simulation-grade signer
}  // namespace oids

}  // namespace mustaple::asn1
