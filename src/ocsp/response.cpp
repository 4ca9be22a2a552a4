#include "ocsp/response.hpp"

#include <algorithm>
#include <utility>

#include "asn1/der.hpp"

namespace mustaple::ocsp {

namespace {

using asn1::Reader;
using asn1::Tag;
using asn1::Writer;
using util::Bytes;
using util::Result;

void write_alg(Writer& w, crypto::SignatureAlgorithm alg) {
  w.sequence([&](Writer& seq) {
    seq.oid(alg == crypto::SignatureAlgorithm::kRsaSha256
                ? asn1::oids::sha256_with_rsa()
                : asn1::oids::sim_hash_sig());
    seq.null();
  });
}

void encode_single(Writer& w, const SingleResponse& single) {
  w.sequence([&](Writer& s) {
    encode_cert_id(s, single.cert_id);
    switch (single.status) {
      case CertStatus::kGood:
        s.implicit_context(0, {});  // [0] IMPLICIT NULL
        break;
      case CertStatus::kRevoked: {
        // [1] IMPLICIT RevokedInfo (constructed).
        const RevokedInfo& rev =
            single.revoked.value_or(RevokedInfo{single.this_update, {}});
        s.nested(asn1::context_tag(1, /*constructed=*/true), [&](Writer& info) {
          info.generalized_time(rev.revocation_time);
          if (rev.reason) {
            info.explicit_context(0, [&](Writer& reason) {
              reason.enumerated(static_cast<std::int64_t>(*rev.reason));
            });
          }
        });
        break;
      }
      case CertStatus::kUnknown:
        s.implicit_context(2, {});
        break;
    }
    s.generalized_time(single.this_update);
    if (single.next_update) {
      s.explicit_context(0, [&](Writer& nu) {
        nu.generalized_time(*single.next_update);
      });
    }
  });
}

Result<SingleResponse> decode_single(Reader& r) {
  using R = Result<SingleResponse>;
  auto seq = r.expect_view(Tag::kSequence);
  if (!seq.ok()) return R::failure(seq.error().code, "SingleResponse");
  Reader body(seq.value().content);
  SingleResponse single;
  auto id = decode_cert_id(body);
  if (!id.ok()) return R::failure(id.error().code, id.error().detail);
  single.cert_id = id.value();

  auto status_tlv = body.read_any_view();
  if (!status_tlv.ok()) return R::failure(status_tlv.error().code, "certStatus");
  if (status_tlv.value().is_context(0, false)) {
    single.status = CertStatus::kGood;
  } else if (status_tlv.value().is_context(1, true)) {
    single.status = CertStatus::kRevoked;
    Reader info(status_tlv.value().content);
    RevokedInfo revoked;
    auto when = info.read_generalized_time();
    if (!when.ok()) return R::failure(when.error().code, "revocationTime");
    revoked.revocation_time = when.value();
    if (!info.at_end()) {
      auto reason_wrap = info.expect_context_view(0, true);
      if (!reason_wrap.ok()) {
        return R::failure(reason_wrap.error().code, "revocationReason");
      }
      Reader reason_reader(reason_wrap.value().content);
      auto reason = reason_reader.read_enumerated();
      if (!reason.ok()) return R::failure(reason.error().code, "reason");
      revoked.reason = static_cast<crl::ReasonCode>(reason.value());
    }
    single.revoked = revoked;
  } else if (status_tlv.value().is_context(2, false)) {
    single.status = CertStatus::kUnknown;
  } else {
    return R::failure("ocsp.bad_cert_status", "unrecognized CHOICE tag");
  }

  auto this_update = body.read_generalized_time();
  if (!this_update.ok()) {
    return R::failure(this_update.error().code, "thisUpdate");
  }
  single.this_update = this_update.value();
  if (!body.at_end() &&
      body.peek_tag() == asn1::context_tag(0, /*constructed=*/true)) {
    auto nu_wrap = body.expect_context_view(0, true);
    if (!nu_wrap.ok()) return R::failure(nu_wrap.error().code, "nextUpdate");
    Reader nu_reader(nu_wrap.value().content);
    auto nu = nu_reader.read_generalized_time();
    if (!nu.ok()) return R::failure(nu.error().code, "nextUpdate");
    single.next_update = nu.value();
  }
  return single;
}

}  // namespace

const SingleResponse* OcspResponse::find_by_serial(
    const util::Bytes& serial) const {
  const auto it = std::find_if(responses_.begin(), responses_.end(),
                               [&serial](const SingleResponse& s) {
                                 return s.cert_id.serial == serial;
                               });
  return it == responses_.end() ? nullptr : &*it;
}

util::Bytes OcspResponse::encode_der() const {
  Writer w;
  w.sequence([&](Writer& response) {
    response.enumerated(static_cast<std::int64_t>(response_status_));
    if (response_status_ == ResponseStatus::kSuccessful) {
      response.explicit_context(0, [&](Writer& rb) {
        rb.sequence([&](Writer& response_bytes) {
          response_bytes.oid(asn1::oids::ocsp_basic());
          // BasicOCSPResponse, written in place inside its OCTET STRING.
          response_bytes.nested(
              static_cast<std::uint8_t>(Tag::kOctetString), [&](Writer& octets) {
                octets.sequence([&](Writer& b) {
                  b.raw(tbs_der_);
                  write_alg(b, sig_alg_);
                  b.bit_string(signature_);
                  if (!certs_.empty()) {
                    b.explicit_context(0, [&](Writer& certs_wrap) {
                      certs_wrap.sequence([&](Writer& list) {
                        for (const auto& cert : certs_) cert.encode(list);
                      });
                    });
                  }
                });
              });
        });
      });
    }
  });
  return w.take();
}

util::Result<OcspResponse> OcspResponse::parse(const util::Bytes& der) {
  using R = Result<OcspResponse>;
  Reader top(der);
  auto outer = top.expect_view(Tag::kSequence);
  if (!outer.ok()) return R::failure(outer.error().code, "OCSPResponse");
  Reader resp(outer.value().content);
  auto status = resp.read_enumerated();
  if (!status.ok()) return R::failure(status.error().code, "responseStatus");
  OcspResponse out;
  switch (status.value()) {
    case 0:
      out.response_status_ = ResponseStatus::kSuccessful;
      break;
    case 1:
      out.response_status_ = ResponseStatus::kMalformedRequest;
      break;
    case 2:
      out.response_status_ = ResponseStatus::kInternalError;
      break;
    case 3:
      out.response_status_ = ResponseStatus::kTryLater;
      break;
    case 5:
      out.response_status_ = ResponseStatus::kSigRequired;
      break;
    case 6:
      out.response_status_ = ResponseStatus::kUnauthorized;
      break;
    default:
      return R::failure("ocsp.bad_response_status",
                        std::to_string(status.value()));
  }
  if (out.response_status_ != ResponseStatus::kSuccessful) return out;

  auto rb_wrap = resp.expect_context_view(0, true);
  if (!rb_wrap.ok()) return R::failure(rb_wrap.error().code, "responseBytes");
  Reader rb_reader(rb_wrap.value().content);
  auto rb_seq = rb_reader.expect_view(Tag::kSequence);
  if (!rb_seq.ok()) return R::failure(rb_seq.error().code, "responseBytes");
  Reader rb_body(rb_seq.value().content);
  auto response_type = rb_body.read_oid();
  if (!response_type.ok()) {
    return R::failure(response_type.error().code, "responseType");
  }
  if (!(response_type.value() == asn1::oids::ocsp_basic())) {
    return R::failure("ocsp.unsupported_response_type",
                      response_type.value().to_string());
  }
  auto basic_octets = rb_body.read_octet_string_view();
  if (!basic_octets.ok()) {
    return R::failure(basic_octets.error().code, "response octets");
  }

  Reader basic_top(basic_octets.value());
  auto basic_seq = basic_top.expect_view(Tag::kSequence);
  if (!basic_seq.ok()) {
    return R::failure(basic_seq.error().code, "BasicOCSPResponse");
  }
  Reader basic(basic_seq.value().content);
  auto tbs = basic.expect_view(Tag::kSequence);
  if (!tbs.ok()) return R::failure(tbs.error().code, "tbsResponseData");
  {
    Writer rewriter;
    rewriter.tlv(static_cast<std::uint8_t>(Tag::kSequence), tbs.value().content);
    out.tbs_der_ = rewriter.take();
  }
  {
    auto alg_seq = basic.expect_view(Tag::kSequence);
    if (!alg_seq.ok()) return R::failure(alg_seq.error().code, "sig alg");
    Reader alg_body(alg_seq.value().content);
    auto oid = alg_body.read_oid();
    if (!oid.ok()) return R::failure(oid.error().code, "sig alg oid");
    out.sig_alg_ = oid.value() == asn1::oids::sha256_with_rsa()
                       ? crypto::SignatureAlgorithm::kRsaSha256
                       : crypto::SignatureAlgorithm::kSimHashSig;
  }
  auto sig = basic.read_bit_string_view();
  if (!sig.ok()) return R::failure(sig.error().code, "signature");
  out.signature_ = sig.value().to_bytes();
  if (!basic.at_end()) {
    auto certs_wrap = basic.expect_context_view(0, true);
    if (!certs_wrap.ok()) return R::failure(certs_wrap.error().code, "certs");
    Reader certs_outer(certs_wrap.value().content);
    auto certs_seq = certs_outer.expect_view(Tag::kSequence);
    if (!certs_seq.ok()) return R::failure(certs_seq.error().code, "certs");
    Reader certs_reader(certs_seq.value().content);
    while (!certs_reader.at_end()) {
      auto cert_tlv = certs_reader.read_any_view();
      if (!cert_tlv.ok()) return R::failure(cert_tlv.error().code, "cert");
      Writer rewriter;
      rewriter.tlv(cert_tlv.value().tag, cert_tlv.value().content);
      auto cert = x509::Certificate::parse(rewriter.bytes());
      if (!cert.ok()) return R::failure(cert.error().code, "embedded cert");
      out.certs_.push_back(std::move(cert).take());
    }
  }

  // tbsResponseData fields.
  Reader tbs_reader(tbs.value().content);
  auto produced = tbs_reader.read_generalized_time();
  if (!produced.ok()) return R::failure(produced.error().code, "producedAt");
  out.produced_at_ = produced.value();
  auto singles_seq = tbs_reader.expect_view(Tag::kSequence);
  if (!singles_seq.ok()) return R::failure(singles_seq.error().code, "responses");
  Reader singles(singles_seq.value().content);
  while (!singles.at_end()) {
    auto single = decode_single(singles);
    if (!single.ok()) return R::failure(single.error().code, single.error().detail);
    out.responses_.push_back(std::move(single).take());
  }
  if (out.responses_.empty()) {
    return R::failure("ocsp.no_single_responses");
  }
  // Optional [1] responseExtensions: the nonce.
  if (!tbs_reader.at_end() &&
      tbs_reader.peek_tag() == asn1::context_tag(1, /*constructed=*/true)) {
    auto wrapper = tbs_reader.expect_context_view(1, true);
    if (!wrapper.ok()) return R::failure(wrapper.error().code, "extensions");
    Reader ext_outer(wrapper.value().content);
    auto exts = ext_outer.expect_view(Tag::kSequence);
    if (!exts.ok()) return R::failure(exts.error().code, "extensions");
    Reader exts_reader(exts.value().content);
    while (!exts_reader.at_end()) {
      auto ext = exts_reader.expect_view(Tag::kSequence);
      if (!ext.ok()) return R::failure(ext.error().code, "extension");
      Reader ext_reader(ext.value().content);
      auto oid = ext_reader.read_oid();
      if (!oid.ok()) return R::failure(oid.error().code, "extension oid");
      auto value = ext_reader.read_octet_string_view();
      if (!value.ok()) return R::failure(value.error().code, "extension value");
      if (oid.value() == asn1::oids::ocsp_nonce()) {
        out.nonce_ = value.value().to_bytes();
      }
    }
  }
  return out;
}

OcspResponse OcspResponseBuilder::error(ResponseStatus status) {
  OcspResponse out;
  out.response_status_ = status;
  return out;
}

OcspResponseBuilder& OcspResponseBuilder::produced_at(util::SimTime t) {
  produced_at_ = t;
  return *this;
}

OcspResponseBuilder& OcspResponseBuilder::add_single(SingleResponse single) {
  responses_.push_back(std::move(single));
  return *this;
}

OcspResponseBuilder& OcspResponseBuilder::add_cert(x509::Certificate cert) {
  certs_.push_back(std::move(cert));
  return *this;
}

OcspResponseBuilder& OcspResponseBuilder::nonce(util::Bytes value) {
  nonce_ = std::move(value);
  return *this;
}

OcspResponse OcspResponseBuilder::sign(const crypto::KeyPair& key) {
  Writer tbs;
  tbs.sequence([&](Writer& body) {
    body.generalized_time(produced_at_);
    body.sequence([&](Writer& singles) {
      for (const auto& single : responses_) encode_single(singles, single);
    });
    if (nonce_) {
      body.explicit_context(1, [&](Writer& wrapper) {
        wrapper.sequence([&](Writer& exts) {
          exts.sequence([&](Writer& ext) {
            ext.oid(asn1::oids::ocsp_nonce());
            ext.octet_string(*nonce_);
          });
        });
      });
    }
  });

  OcspResponse out;
  out.response_status_ = ResponseStatus::kSuccessful;
  out.produced_at_ = produced_at_;
  out.nonce_ = std::exchange(nonce_, std::nullopt);
  out.responses_ = std::exchange(responses_, {});
  out.certs_ = std::exchange(certs_, {});
  out.sig_alg_ = key.algorithm();
  out.tbs_der_ = tbs.take();
  out.signature_ = key.sign(out.tbs_der_);
  return out;
}

}  // namespace mustaple::ocsp
