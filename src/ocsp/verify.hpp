// Client-side OCSP response validation — the measurement client's check
// pipeline from paper §5.3/§5.4. Each probe's body flows through
// verify_ocsp_response(), which classifies it into exactly the categories
// the paper reports: malformed ASN.1, serial mismatch, bad signature, and
// the validity-window pathologies of Figures 8/9.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/signer.hpp"
#include "ocsp/response.hpp"
#include "ocsp/types.hpp"
#include "util/sim_time.hpp"

namespace mustaple::ocsp {

enum class CheckOutcome : std::uint8_t {
  kOk = 0,
  /// Body did not parse as an OCSPResponse (Fig 5 "ASN.1 Unparseable":
  /// empty bodies, the literal "0", JavaScript pages, ...).
  kUnparseable,
  /// Parsed, but responseStatus != successful (tryLater, internalError...).
  kNotSuccessful,
  /// No SingleResponse carries the serial we asked about (Fig 5
  /// "SerialUnmatch").
  kSerialMismatch,
  /// Signature fails under both delegation certs and the issuer key
  /// (Fig 5 "Signature").
  kBadSignature,
  /// thisUpdate is in the client's future — the premature values of Fig 9;
  /// a client with an accurate clock rejects the response as not yet valid.
  kNotYetValid,
  /// nextUpdate has passed (the paper looked for these and found none in
  /// the wild; web-server caches can still produce them — Table 3).
  kExpired,
  /// The client sent a nonce (RFC 6960 §4.4.1) and the response failed to
  /// echo it — typical of pre-generated (cached) responders, which cannot
  /// personalize responses.
  kNonceMismatch,
};

constexpr std::size_t kCheckOutcomeCount = 8;

const char* to_string(CheckOutcome outcome);

/// Everything the analysis layer wants to know about one validated response.
struct VerifiedResponse {
  CheckOutcome outcome = CheckOutcome::kUnparseable;
  std::string error_code;  ///< underlying parse error, when unparseable

  CertStatus status = CertStatus::kUnknown;
  std::optional<RevokedInfo> revoked;

  util::SimTime produced_at{};
  util::SimTime this_update{};
  std::optional<util::SimTime> next_update;  ///< nullopt = blank (Fig 8)

  std::size_t num_certs = 0;    ///< certificates attached (Fig 6)
  std::size_t num_serials = 0;  ///< SingleResponses in the body (Fig 7)

  /// Whether a Must-Staple-respecting client would treat the staple as
  /// usable at `now` (i.e. outcome == kOk).
  bool usable() const { return outcome == CheckOutcome::kOk; }
};

/// Validates `raw_body` (the HTTP response body) for the certificate
/// identified by `requested`, using `issuer_key` to check signatures
/// (directly or via OCSP Signature Authority Delegation through certs
/// embedded in the response), against the client clock `now`.
VerifiedResponse verify_ocsp_response(const util::Bytes& raw_body,
                                      const CertId& requested,
                                      const crypto::PublicKey& issuer_key,
                                      util::SimTime now);

/// The time-invariant part of validation: parse, serial match, signature.
/// The returned value's `outcome` is kOk when only the clock-dependent
/// checks remain. Cacheable by (body, requested CertID, issuer key): the
/// hourly scanner keeps each target's last result and reuses it while the
/// target's responder re-serves identical DER, as pre-generated responders
/// do for a whole update cycle.
VerifiedResponse verify_ocsp_response_static(
    const util::Bytes& raw_body, const CertId& requested,
    const crypto::PublicKey& issuer_key,
    const std::optional<util::Bytes>& expected_nonce = std::nullopt);

/// Applies the clock-dependent checks (premature thisUpdate, expired
/// nextUpdate) to a static verification result.
VerifiedResponse apply_time_checks(VerifiedResponse static_result,
                                   util::SimTime now);

}  // namespace mustaple::ocsp
