#include "ocsp/request.hpp"

#include "asn1/der.hpp"
#include "util/base64.hpp"
#include "util/strings.hpp"

namespace mustaple::ocsp {

namespace {
using asn1::Reader;
using asn1::Tag;
using asn1::Writer;
using util::Result;

/// The nonce extension's OID content octets. An OID's DER content is
/// unique, so comparing content octets is comparing OIDs.
const util::Bytes& nonce_oid_content() {
  static const util::Bytes content = [] {
    util::Bytes out;
    asn1::oids::ocsp_nonce().append_content(out);
    return out;
  }();
  return content;
}

}  // namespace

void encode_cert_id(Writer& w, const CertIdView& id) {
  w.sequence([&](Writer& cid) {
    cid.sequence([&](Writer& alg) {
      alg.oid(asn1::oids::sha1());
      alg.null();
    });
    cid.octet_string(id.issuer_name_hash);
    cid.octet_string(id.issuer_key_hash);
    cid.integer_bytes(id.serial);
  });
}

util::Result<CertIdView> read_cert_id(Reader& r) {
  using R = Result<CertIdView>;
  auto seq = r.expect_view(Tag::kSequence);
  if (!seq.ok()) return R::failure(seq.error().code, "certID");
  Reader body(seq.value().content);
  auto alg = body.expect_view(Tag::kSequence);
  if (!alg.ok()) return R::failure(alg.error().code, "certID alg");
  auto name_hash = body.read_octet_string_view();
  if (!name_hash.ok()) return R::failure(name_hash.error().code, "nameHash");
  auto key_hash = body.read_octet_string_view();
  if (!key_hash.ok()) return R::failure(key_hash.error().code, "keyHash");
  auto serial = body.read_integer_bytes_view();
  if (!serial.ok()) return R::failure(serial.error().code, "serial");
  return CertIdView(name_hash.value(), key_hash.value(), serial.value());
}

util::Result<CertIdView> read_request_entry(Reader& r) {
  using R = Result<CertIdView>;
  auto single = r.expect_view(Tag::kSequence);
  if (!single.ok()) return R::failure(single.error().code, "Request");
  Reader single_reader(single.value().content);
  return read_cert_id(single_reader);
}

util::Result<OcspRequestView> OcspRequestView::parse(util::BytesView der) {
  using R = Result<OcspRequestView>;
  Reader top(der);
  auto outer = top.expect_view(Tag::kSequence);
  if (!outer.ok()) return R::failure(outer.error().code, "OCSPRequest");
  Reader req(outer.value().content);
  auto tbs = req.expect_view(Tag::kSequence);
  if (!tbs.ok()) return R::failure(tbs.error().code, "TBSRequest");
  Reader tbs_reader(tbs.value().content);
  auto list = tbs_reader.expect_view(Tag::kSequence);
  if (!list.ok()) return R::failure(list.error().code, "requestList");
  OcspRequestView view;
  view.request_list_ = list.value().content;
  Reader list_reader(view.request_list_);
  bool empty = true;
  while (!list_reader.at_end()) {
    auto id = read_request_entry(list_reader);
    if (!id.ok()) return id.error();
    if (empty) view.first_ = id.value();
    empty = false;
  }
  if (empty) return R::failure("ocsp.request.empty", "no CertIDs");

  // Optional [2] requestExtensions: pick out the nonce.
  if (!tbs_reader.at_end() &&
      tbs_reader.peek_tag() == asn1::context_tag(2, /*constructed=*/true)) {
    auto wrapper = tbs_reader.expect_context_view(2, true);
    if (!wrapper.ok()) return R::failure(wrapper.error().code, "extensions");
    Reader ext_outer(wrapper.value().content);
    auto exts = ext_outer.expect_view(Tag::kSequence);
    if (!exts.ok()) return R::failure(exts.error().code, "extensions");
    Reader exts_reader(exts.value().content);
    while (!exts_reader.at_end()) {
      auto ext = exts_reader.expect_view(Tag::kSequence);
      if (!ext.ok()) return R::failure(ext.error().code, "extension");
      Reader ext_reader(ext.value().content);
      auto oid = ext_reader.expect_view(Tag::kOid);
      if (!oid.ok()) return R::failure(oid.error().code, "extension oid");
      const bool is_nonce =
          oid.value().content == util::BytesView(nonce_oid_content());
      if (!is_nonce) {
        // Any other extension only has to carry a well-formed OID.
        auto other = asn1::Oid::decode_content(oid.value().content);
        if (!other.ok()) {
          return R::failure(other.error().code, "extension oid");
        }
      }
      auto value = ext_reader.read_octet_string_view();
      if (!value.ok()) return R::failure(value.error().code, "extension value");
      if (is_nonce) view.nonce_ = value.value();
    }
  }
  return view;
}

util::Bytes OcspRequest::encode_der() const {
  Writer w;
  w.sequence([&](Writer& request) {
    request.sequence([&](Writer& tbs) {       // TBSRequest
      tbs.sequence([&](Writer& list) {        // requestList
        for (const auto& id : cert_ids_) {
          list.sequence([&](Writer& single) {  // Request
            encode_cert_id(single, id);
          });
        }
      });
      if (nonce_) {
        // [2] EXPLICIT requestExtensions.
        tbs.explicit_context(2, [&](Writer& wrapper) {
          wrapper.sequence([&](Writer& exts) {
            exts.sequence([&](Writer& ext) {
              ext.oid(asn1::oids::ocsp_nonce());
              ext.octet_string(*nonce_);
            });
          });
        });
      }
    });
  });
  return w.take();
}

util::Result<OcspRequest> OcspRequest::parse(const util::Bytes& der) {
  auto view = OcspRequestView::parse(der);
  if (!view.ok()) return view.error();
  std::vector<CertId> ids;
  view.value().for_each_cert_id(
      [&ids](const CertIdView& id) { ids.push_back(id.to_cert_id()); });
  OcspRequest request(std::move(ids));
  if (view.value().nonce()) request.set_nonce(view.value().nonce()->to_bytes());
  return request;
}

std::string OcspRequest::encode_get_path() const {
  return "/" + util::base64url_encode(encode_der());
}

util::Result<util::Bytes> decode_get_path(std::string_view path) {
  using R = Result<util::Bytes>;
  if (path.empty() || path[0] != '/') {
    return R::failure("ocsp.get.bad_path", std::string(path));
  }
  // RFC 6960 Appendix A.1: the path segment is the base64 request
  // "URL-encoded" — real clients escape '+', '/', and '=' as %2B/%2F/%3D,
  // so the escapes must be undone BEFORE base64 decoding. A malformed
  // escape ("%GZ", truncated "%A") is a bad request outright; decoded
  // garbage like "%00" passes through here and is rejected by the base64
  // layer below. Real clients often use standard base64 in GET paths, so
  // either alphabet is accepted.
  util::Bytes der;
  const util::Status unescaped = util::percent_decode(path.substr(1), der);
  if (!unescaped.ok()) {
    return R::failure("ocsp.get.bad_escape", unescaped.error().detail);
  }
  const util::Status decoded = util::base64_decode_in_place(der);
  if (!decoded.ok()) return R::failure(decoded.error().code, "GET path");
  return der;
}

util::Result<OcspRequest> OcspRequest::parse_get_path(const std::string& path) {
  auto der = decode_get_path(path);
  if (!der.ok()) return der.error();
  return parse(der.value());
}

}  // namespace mustaple::ocsp
