// OCSPResponse / BasicOCSPResponse (RFC 6960 §4.2). The response model keeps
// every degree of freedom the paper measures:
//   * multiple SingleResponses per response (Fig 7: 3.3% of responders
//     always pack 20 serials),
//   * superfluous certificates in the certs field (Fig 6: 14.5% of
//     responders send more than one certificate),
//   * absent ("blank") nextUpdate (Fig 8: 9.1% of responders),
//   * arbitrary thisUpdate/producedAt placement (Fig 9: premature values).
#pragma once

#include <optional>
#include <vector>

#include "crypto/signer.hpp"
#include "ocsp/request.hpp"
#include "ocsp/types.hpp"
#include "util/result.hpp"

namespace mustaple::ocsp {

/// One SingleResponse.
struct SingleResponse {
  CertId cert_id;
  CertStatus status = CertStatus::kGood;
  std::optional<RevokedInfo> revoked;  ///< set when status == kRevoked
  util::SimTime this_update{};
  /// nullopt models the "blank nextUpdate" the paper flags as risky: the
  /// response never expires from the client's point of view.
  std::optional<util::SimTime> next_update;
};

/// A full OCSP response (outer status + optional signed basic response).
class OcspResponse {
 public:
  OcspResponse() = default;

  ResponseStatus response_status() const { return response_status_; }
  bool successful() const {
    return response_status_ == ResponseStatus::kSuccessful;
  }

  util::SimTime produced_at() const { return produced_at_; }
  const std::vector<SingleResponse>& responses() const { return responses_; }
  /// Echoed request nonce (RFC 6960 §4.4.1); absent from cached
  /// (pre-generated) responses by construction.
  const std::optional<util::Bytes>& nonce() const { return nonce_; }
  /// Certificates attached to the response (delegated signer and/or
  /// superfluous extras).
  const std::vector<x509::Certificate>& certs() const { return certs_; }
  const util::Bytes& signature() const { return signature_; }
  const util::Bytes& tbs_der() const { return tbs_der_; }

  /// Finds the SingleResponse matching a CertID's serial (the check whose
  /// failure the paper classifies as "Serial number mismatch").
  const SingleResponse* find_by_serial(const util::Bytes& serial) const;

  bool verify_signature(const crypto::PublicKey& key) const {
    return key.verify(tbs_der_, signature_);
  }

  util::Bytes encode_der() const;
  static util::Result<OcspResponse> parse(const util::Bytes& der);

  friend class OcspResponseBuilder;

 private:
  ResponseStatus response_status_ = ResponseStatus::kInternalError;
  util::SimTime produced_at_{};
  std::optional<util::Bytes> nonce_;
  std::vector<SingleResponse> responses_;
  std::vector<x509::Certificate> certs_;
  util::Bytes tbs_der_;
  util::Bytes signature_;
  crypto::SignatureAlgorithm sig_alg_ = crypto::SignatureAlgorithm::kSimHashSig;
};

/// Builds responses. The CA simulation drives this; the behaviour-profile
/// knobs (extra serials, superfluous certs, blank nextUpdate, premature
/// thisUpdate) map directly onto builder calls.
class OcspResponseBuilder {
 public:
  /// A non-successful response has no response bytes at all.
  static OcspResponse error(ResponseStatus status);

  OcspResponseBuilder& produced_at(util::SimTime t);
  OcspResponseBuilder& add_single(SingleResponse single);
  OcspResponseBuilder& add_cert(x509::Certificate cert);
  OcspResponseBuilder& nonce(util::Bytes value);

  /// Signs and hands the SingleResponses, certificates and nonce over to
  /// the response without copying them; the builder is left empty.
  OcspResponse sign(const crypto::KeyPair& key);

 private:
  util::SimTime produced_at_{};
  std::optional<util::Bytes> nonce_;
  std::vector<SingleResponse> responses_;
  std::vector<x509::Certificate> certs_;
};

}  // namespace mustaple::ocsp
