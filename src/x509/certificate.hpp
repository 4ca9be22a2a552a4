// X.509 v3 certificates: structure, extensions, DER encode/parse, and a
// builder used by the CA simulation. The extension set covers exactly what
// the paper measures: AIA (OCSP responder URL — §4/§5), CRL Distribution
// Points (§5.4 consistency), OCSP Must-Staple / TLS Feature (the headline
// extension), plus SAN and BasicConstraints for realistic chains.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asn1/der.hpp"
#include "crypto/signer.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/sim_time.hpp"
#include "x509/name.hpp"

namespace mustaple::x509 {

/// Certificate validity window; inclusive bounds per RFC 5280.
struct Validity {
  util::SimTime not_before;
  util::SimTime not_after;

  bool contains(util::SimTime t) const {
    return not_before <= t && t <= not_after;
  }
  util::Duration length() const { return not_after - not_before; }
};

/// The decoded extension set (absent extensions are empty/nullopt).
struct Extensions {
  /// AIA id-ad-ocsp URLs. Multiple entries model the paper's 0.008% of
  /// certificates with several responders (§5.1 step 2).
  std::vector<std::string> ocsp_urls;
  /// AIA id-ad-caIssuers URL.
  std::optional<std::string> ca_issuers_url;
  /// CRL Distribution Point URLs.
  std::vector<std::string> crl_urls;
  /// OCSP Must-Staple: TLS Feature extension containing status_request (5).
  bool must_staple = false;
  /// TLS Feature extension content: every feature id present, in encoded
  /// order. nullopt = extension absent; an empty list models the RFC
  /// 7633-violating empty SEQUENCE. `must_staple` stays the derived
  /// convenience flag (list contains 5).
  std::optional<std::vector<std::int64_t>> tls_features;
  /// Subject Alternative Names (dNSName entries).
  std::vector<std::string> san_dns;
  /// BasicConstraints: present on CA certificates.
  std::optional<bool> is_ca;

  bool supports_ocsp() const { return !ocsp_urls.empty(); }
  bool supports_crl() const { return !crl_urls.empty(); }
};

/// An X.509 certificate. Immutable once built/parsed; the raw TBS bytes are
/// retained so signatures verify over exactly what was signed.
class Certificate {
 public:
  Certificate() = default;

  const util::Bytes& serial() const { return serial_; }
  const DistinguishedName& subject() const { return subject_; }
  const DistinguishedName& issuer() const { return issuer_; }
  const Validity& validity() const { return validity_; }
  const crypto::PublicKey& public_key() const { return public_key_; }
  const Extensions& extensions() const { return extensions_; }
  const util::Bytes& signature() const { return signature_; }
  const util::Bytes& tbs_der() const { return tbs_der_; }
  crypto::SignatureAlgorithm signature_algorithm() const { return sig_alg_; }

  bool is_self_signed() const { return subject_ == issuer_; }
  bool is_expired_at(util::SimTime t) const { return t > validity_.not_after; }

  /// Serial as lowercase hex — the map key used throughout the study.
  std::string serial_hex() const { return util::to_hex(serial_); }

  /// SHA-256 over the full DER encoding.
  util::Bytes fingerprint() const;

  /// Verifies this certificate's signature against an issuer key.
  bool verify_signature(const crypto::PublicKey& issuer_key) const;

  /// Full DER: SEQUENCE { tbs, algorithm, BIT STRING signature }.
  util::Bytes encode_der() const;
  /// Writes the same DER in place (e.g. into an OCSP response's certs).
  void encode(asn1::Writer& w) const;

  /// Parses DER; classifies malformed input via Result (never throws).
  static util::Result<Certificate> parse(const util::Bytes& der);

  friend class CertificateBuilder;

 private:
  util::Bytes serial_;
  DistinguishedName subject_;
  DistinguishedName issuer_;
  Validity validity_{};
  crypto::PublicKey public_key_;
  Extensions extensions_;
  util::Bytes tbs_der_;
  util::Bytes signature_;
  crypto::SignatureAlgorithm sig_alg_ = crypto::SignatureAlgorithm::kSimHashSig;
};

/// Fluent builder: fill fields, then sign with the issuer's key.
class CertificateBuilder {
 public:
  CertificateBuilder& serial(util::Bytes serial);
  CertificateBuilder& serial_number(std::uint64_t serial);
  CertificateBuilder& subject(DistinguishedName name);
  CertificateBuilder& issuer(DistinguishedName name);
  CertificateBuilder& validity(util::SimTime not_before, util::SimTime not_after);
  CertificateBuilder& public_key(crypto::PublicKey key);
  CertificateBuilder& add_ocsp_url(std::string url);
  CertificateBuilder& ca_issuers_url(std::string url);
  CertificateBuilder& add_crl_url(std::string url);
  CertificateBuilder& must_staple(bool enabled);
  /// Writes a TLS Feature extension with exactly these feature ids (an empty
  /// list writes an empty SEQUENCE — used to exercise lint's RFC 7633
  /// checks). Overrides must_staple()'s implicit {5}.
  CertificateBuilder& tls_features(std::vector<std::int64_t> features);
  CertificateBuilder& add_san(std::string dns_name);
  CertificateBuilder& ca(bool is_ca);

  /// Encodes the TBS, signs it with `issuer_key`, and returns the finished
  /// certificate. Throws std::logic_error if required fields are missing.
  Certificate sign(const crypto::KeyPair& issuer_key) const;

 private:
  util::Bytes encode_tbs(crypto::SignatureAlgorithm sig_alg) const;

  util::Bytes serial_;
  DistinguishedName subject_;
  DistinguishedName issuer_;
  Validity validity_{};
  crypto::PublicKey public_key_;
  Extensions extensions_;
};

}  // namespace mustaple::x509
