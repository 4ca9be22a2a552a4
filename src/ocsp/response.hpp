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

// ------------------------------------------------------------ encoders --
//
// Each structure has one encoder. OcspResponse::encode_der (built and
// parsed responses) and OcspResponseBuilder go through these, and so does
// the CA's responder, which writes its answer straight from its inputs —
// a request's CertID and nonce as views — into one asn1::Writer and signs
// the tbsResponseData where it lies (DESIGN.md §9).

/// Writes one SingleResponse. A revoked status without `revoked` details
/// reads as revoked at `this_update` with no reason.
void encode_single(asn1::Writer& w, const CertIdView& cert_id,
                   CertStatus status, const std::optional<RevokedInfo>& revoked,
                   util::SimTime this_update,
                   const std::optional<util::SimTime>& next_update);

namespace detail {
void encode_nonce_extension(asn1::Writer& w, util::BytesView nonce);
void encode_signature(asn1::Writer& w, crypto::SignatureAlgorithm alg,
                      util::BytesView signature);
}  // namespace detail

/// Writes tbsResponseData: producedAt, the SingleResponses `singles(w)`
/// writes, and the nonce extension when there is one.
template <typename Singles>
void encode_response_data(asn1::Writer& w, util::SimTime produced_at,
                          Singles&& singles,
                          const std::optional<util::BytesView>& nonce) {
  w.sequence([&](asn1::Writer& body) {
    body.generalized_time(produced_at);
    body.sequence(singles);
    if (nonce) detail::encode_nonce_extension(body, *nonce);
  });
}

/// Writes a successful OCSPResponse whose BasicOCSPResponse is written in
/// place inside its OCTET STRING: `tbs(w)` writes tbsResponseData, then
/// `sign(tbs_der)` returns the signature over it. The TBS is final once
/// `tbs` returns and nothing moves it until the enclosing TLVs close, so
/// `tbs_der` views it where it lies in the Writer's buffer — valid only
/// until `sign` returns. `certs(w)` writes the certificates, each with
/// Certificate::encode, and runs only when `has_certs`.
template <typename Tbs, typename Sign, typename Certs>
void encode_successful_response(asn1::Writer& w, Tbs&& tbs,
                                crypto::SignatureAlgorithm alg, Sign&& sign,
                                bool has_certs, Certs&& certs) {
  w.sequence([&](asn1::Writer& response) {
    response.enumerated(static_cast<std::int64_t>(ResponseStatus::kSuccessful));
    response.explicit_context(0, [&](asn1::Writer& rb) {
      rb.sequence([&](asn1::Writer& response_bytes) {
        response_bytes.oid(asn1::oids::ocsp_basic());
        response_bytes.nested(
            static_cast<std::uint8_t>(asn1::Tag::kOctetString),
            [&](asn1::Writer& octets) {
              octets.sequence([&](asn1::Writer& basic) {
                const std::size_t tbs_begin = basic.bytes().size();
                tbs(basic);
                decltype(auto) signature =
                    sign(util::BytesView(basic.bytes()).subview(tbs_begin));
                detail::encode_signature(basic, alg, signature);
                if (has_certs) {
                  basic.explicit_context(0, [&](asn1::Writer& certs_wrap) {
                    certs_wrap.sequence(certs);
                  });
                }
              });
            });
      });
    });
  });
}

/// Builds responses. Tests and examples construct responses with it (and
/// the responder's bytes are checked against it); the behaviour-profile
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
