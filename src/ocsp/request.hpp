// OCSPRequest (RFC 6960 §4.1): carried as the body of an HTTP POST to the
// responder URL from the certificate's AIA extension — the paper's
// measurement client does exactly this (§5.1 step 4).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "asn1/der.hpp"
#include "ocsp/types.hpp"
#include "util/bytes_view.hpp"
#include "util/result.hpp"

namespace mustaple::ocsp {

/// An OCSPRequest read in place (RFC 6960 §4.1.1): the requestList's
/// CertIDs and the nonce are views into the DER, which must outlive the
/// view (DESIGN.md §9). This is the one traversal of the structure:
/// OcspRequest::parse is built on it, so both accept and reject the same
/// bytes with the same error codes. The responder answers from the view.
class OcspRequestView {
 public:
  static util::Result<OcspRequestView> parse(util::BytesView der);

  /// The requestList's first CertID (a parsed request has at least one).
  const CertIdView& first_cert_id() const { return first_; }
  /// Calls fn(const CertIdView&) for every CertID, in requestList order.
  template <typename Fn>
  void for_each_cert_id(Fn&& fn) const;
  /// The RFC 6960 §4.4.1 nonce extension's value, when present.
  const std::optional<util::BytesView>& nonce() const { return nonce_; }

 private:
  util::BytesView request_list_;  ///< requestList content, checked by parse
  CertIdView first_;
  std::optional<util::BytesView> nonce_;
};

class OcspRequest {
 public:
  OcspRequest() = default;
  explicit OcspRequest(std::vector<CertId> cert_ids)
      : cert_ids_(std::move(cert_ids)) {}

  static OcspRequest single(CertId id) { return OcspRequest({std::move(id)}); }

  const std::vector<CertId>& cert_ids() const { return cert_ids_; }

  /// RFC 6960 §4.4.1 nonce (anti-replay). Pre-generated responders cannot
  /// echo nonces — a structural tension with response caching.
  void set_nonce(util::Bytes nonce) { nonce_ = std::move(nonce); }
  const std::optional<util::Bytes>& nonce() const { return nonce_; }

  util::Bytes encode_der() const;
  /// OcspRequestView::parse plus the copies an owning request keeps.
  static util::Result<OcspRequest> parse(const util::Bytes& der);

  /// RFC 6960 Appendix A.1: the GET form's path segment — the DER request,
  /// base64url-encoded.
  std::string encode_get_path() const;
  /// decode_get_path, then parse.
  static util::Result<OcspRequest> parse_get_path(const std::string& path);

 private:
  std::vector<CertId> cert_ids_;
  std::optional<util::Bytes> nonce_;
};

/// The DER request a GET path ("/" + base64) carries. Percent-escapes are
/// undone first (RFC 6960 Appendix A.1: clients URL-encode the base64),
/// then standard or URL-safe base64 is decoded in place, so the request
/// lands in the one buffer returned.
util::Result<util::Bytes> decode_get_path(std::string_view path);

/// Writes a CertID SEQUENCE into `w` (shared with the response encoder).
void encode_cert_id(asn1::Writer& w, const CertIdView& id);

/// Reads a CertID SEQUENCE from `r` in place: the views borrow r's buffer.
util::Result<CertIdView> read_cert_id(asn1::Reader& r);

/// Reads one requestList entry (Request ::= SEQUENCE { reqCert CertID, ...
/// }) and returns its CertID; anything after reqCert is not examined.
util::Result<CertIdView> read_request_entry(asn1::Reader& r);

template <typename Fn>
void OcspRequestView::for_each_cert_id(Fn&& fn) const {
  asn1::Reader list(request_list_);
  while (!list.at_end()) fn(read_request_entry(list).value());
}

}  // namespace mustaple::ocsp
