// Shared OCSP data types (RFC 6960 profile).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crl/crl.hpp"
#include "util/bytes.hpp"
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
