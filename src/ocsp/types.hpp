// Shared OCSP data types (RFC 6960 profile).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crl/crl.hpp"
#include "util/bytes.hpp"
#include "util/bytes_view.hpp"
#include "util/sim_time.hpp"
#include "x509/certificate.hpp"

namespace mustaple::ocsp {

/// CertID: identifies the certificate whose status is requested. Per RFC
/// 6960 it carries a hash of the issuer's name and key plus the serial —
/// "so that CAs can verify that they issued the certificate before
/// responding" (paper §2.2).
struct CertId {
  util::Bytes issuer_name_hash;  ///< SHA-1 of issuer DN (DER)
  util::Bytes issuer_key_hash;   ///< SHA-1 of issuer public key bytes
  util::Bytes serial;

  /// Derives the CertID for `subject` issued by `issuer`.
  static CertId for_certificate(const x509::Certificate& subject,
                                const x509::Certificate& issuer);
  /// The issuer half alone (both hashes, empty serial): copy it and set
  /// `serial` to key many certificates of one issuer without rehashing.
  static CertId for_issuer(const x509::Certificate& issuer);

  friend bool operator==(const CertId&, const CertId&) = default;
  friend auto operator<=>(const CertId&, const CertId&) = default;
};

/// A CertID read in place: its fields borrow from the DER it was read from,
/// or from the CertId it views (DESIGN.md §9 — a view never outlives its
/// source).
struct CertIdView {
  util::BytesView issuer_name_hash;
  util::BytesView issuer_key_hash;
  util::BytesView serial;

  CertIdView() = default;
  CertIdView(util::BytesView name_hash, util::BytesView key_hash,
             util::BytesView serial_number)
      : issuer_name_hash(name_hash),
        issuer_key_hash(key_hash),
        serial(serial_number) {}
  // Implicit, as BytesView is from Bytes: lookups and encoders take views.
  CertIdView(const CertId& id)  // NOLINT(google-explicit-constructor)
      : issuer_name_hash(id.issuer_name_hash),
        issuer_key_hash(id.issuer_key_hash),
        serial(id.serial) {}
  CertIdView(CertId&&) = delete;

  /// The owning copy, for anything kept past the source buffer.
  CertId to_cert_id() const {
    return CertId{issuer_name_hash.to_bytes(), issuer_key_hash.to_bytes(),
                  serial.to_bytes()};
  }
};

/// CertId's order (issuer name hash, issuer key hash, serial, each as
/// Bytes compare) over views, and transparent: a map keyed by CertId is
/// searched with a CertIdView, so a hit builds no CertId.
struct CertIdLess {
  using is_transparent = void;
  bool operator()(const CertIdView& a, const CertIdView& b) const {
    const util::BytesLess less;
    if (!(a.issuer_name_hash == b.issuer_name_hash)) {
      return less(a.issuer_name_hash, b.issuer_name_hash);
    }
    if (!(a.issuer_key_hash == b.issuer_key_hash)) {
      return less(a.issuer_key_hash, b.issuer_key_hash);
    }
    return less(a.serial, b.serial);
  }
};

/// certStatus values (paper §2.2).
enum class CertStatus : std::uint8_t {
  kGood = 0,
  kRevoked = 1,
  kUnknown = 2,
};

const char* to_string(CertStatus status);

/// Revocation detail attached to a Revoked status.
struct RevokedInfo {
  util::SimTime revocation_time{};
  std::optional<crl::ReasonCode> reason;
};

/// Top-level OCSPResponse responseStatus (RFC 6960 §4.2.1).
enum class ResponseStatus : std::uint8_t {
  kSuccessful = 0,
  kMalformedRequest = 1,
  kInternalError = 2,
  kTryLater = 3,
  kSigRequired = 5,
  kUnauthorized = 6,
};

const char* to_string(ResponseStatus status);

}  // namespace mustaple::ocsp
