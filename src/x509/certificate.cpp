#include "x509/certificate.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha256.hpp"

namespace mustaple::x509 {

namespace {

using asn1::Oid;
using asn1::Reader;
using asn1::Tag;
using asn1::Tlv;
using asn1::Writer;
using util::Bytes;
using util::Result;

const Oid& signature_oid_for(crypto::SignatureAlgorithm alg) {
  switch (alg) {
    case crypto::SignatureAlgorithm::kRsaSha256:
      return asn1::oids::sha256_with_rsa();
    case crypto::SignatureAlgorithm::kSimHashSig:
      return asn1::oids::sim_hash_sig();
  }
  throw std::logic_error("signature_oid_for: unreachable");
}

void write_algorithm_identifier(Writer& w, const Oid& oid) {
  w.sequence([&](Writer& alg) {
    alg.oid(oid);
    alg.null();
  });
}

Result<Oid> read_algorithm_identifier(Reader& r) {
  auto seq = r.expect_view(Tag::kSequence);
  if (!seq.ok()) return Result<Oid>::failure(seq.error().code, seq.error().detail);
  Reader body(seq.value().content);
  auto oid = body.read_oid();
  if (!oid.ok()) return oid;
  // Optional NULL parameters; ignore anything trailing.
  return oid;
}

// --- extension value encoders -------------------------------------------

Bytes encode_aia(const Extensions& ext) {
  Writer w;
  w.sequence([&](Writer& seq) {
    for (const auto& url : ext.ocsp_urls) {
      seq.sequence([&](Writer& ad) {
        ad.oid(asn1::oids::aia_ocsp());
        ad.implicit_context(6, util::bytes_of(url));  // GeneralName: URI
      });
    }
    if (ext.ca_issuers_url) {
      seq.sequence([&](Writer& ad) {
        ad.oid(asn1::oids::aia_ca_issuers());
        ad.implicit_context(6, util::bytes_of(*ext.ca_issuers_url));
      });
    }
  });
  return w.take();
}

Bytes encode_crldp(const std::vector<std::string>& urls) {
  Writer w;
  w.sequence([&](Writer& seq) {
    for (const auto& url : urls) {
      seq.sequence([&](Writer& dp) {
        dp.explicit_context(0, [&](Writer& dpn) {
          dpn.explicit_context(0, [&](Writer& names) {
            names.implicit_context(6, util::bytes_of(url));
          });
        });
      });
    }
  });
  return w.take();
}

Bytes encode_tls_feature(const std::vector<std::int64_t>& features) {
  Writer w;
  w.sequence([&](Writer& seq) {
    for (const std::int64_t feature : features) seq.integer(feature);
  });
  return w.take();
}

Bytes encode_san(const std::vector<std::string>& dns) {
  Writer w;
  w.sequence([&](Writer& seq) {
    for (const auto& name : dns) {
      seq.implicit_context(2, util::bytes_of(name));  // dNSName
    }
  });
  return w.take();
}

Bytes encode_basic_constraints(bool is_ca) {
  Writer w;
  w.sequence([&](Writer& seq) {
    if (is_ca) seq.boolean(true);  // DEFAULT FALSE is omitted in DER
  });
  return w.take();
}

void write_extension(Writer& w, const Oid& oid, bool critical,
                     const Bytes& value) {
  w.sequence([&](Writer& ext) {
    ext.oid(oid);
    if (critical) ext.boolean(true);
    ext.octet_string(value);
  });
}

// --- extension value decoders -------------------------------------------

util::Status decode_aia(util::BytesView value, Extensions& out) {
  Reader r(value);
  auto seq = r.expect_view(Tag::kSequence);
  if (!seq.ok()) return util::Status::failure(seq.error().code);
  Reader body(seq.value().content);
  while (!body.at_end()) {
    auto ad = body.expect_view(Tag::kSequence);
    if (!ad.ok()) return util::Status::failure(ad.error().code);
    Reader ad_body(ad.value().content);
    auto method = ad_body.read_oid();
    if (!method.ok()) return util::Status::failure(method.error().code);
    auto loc = ad_body.read_any_view();
    if (!loc.ok()) return util::Status::failure(loc.error().code);
    if (!loc.value().is_context(6, false)) continue;  // only URIs matter here
    const std::string url = util::text_of(loc.value().content);
    if (method.value() == asn1::oids::aia_ocsp()) {
      out.ocsp_urls.push_back(url);
    } else if (method.value() == asn1::oids::aia_ca_issuers()) {
      out.ca_issuers_url = url;
    }
  }
  return util::Status::success();
}

util::Status decode_crldp(util::BytesView value, Extensions& out) {
  Reader r(value);
  auto seq = r.expect_view(Tag::kSequence);
  if (!seq.ok()) return util::Status::failure(seq.error().code);
  Reader body(seq.value().content);
  while (!body.at_end()) {
    auto dp = body.expect_view(Tag::kSequence);
    if (!dp.ok()) return util::Status::failure(dp.error().code);
    Reader dp_body(dp.value().content);
    if (dp_body.at_end()) continue;
    auto dpn = dp_body.expect_context_view(0, true);
    if (!dpn.ok()) return util::Status::failure(dpn.error().code);
    Reader dpn_body(dpn.value().content);
    auto full_name = dpn_body.expect_context_view(0, true);
    if (!full_name.ok()) return util::Status::failure(full_name.error().code);
    Reader names(full_name.value().content);
    while (!names.at_end()) {
      auto name = names.read_any_view();
      if (!name.ok()) return util::Status::failure(name.error().code);
      if (name.value().is_context(6, false)) {
        out.crl_urls.push_back(util::text_of(name.value().content));
      }
    }
  }
  return util::Status::success();
}

util::Status decode_tls_feature(util::BytesView value, Extensions& out) {
  Reader r(value);
  auto seq = r.expect_view(Tag::kSequence);
  if (!seq.ok()) return util::Status::failure(seq.error().code);
  Reader body(seq.value().content);
  out.tls_features.emplace();
  while (!body.at_end()) {
    auto feature = body.read_integer();
    if (!feature.ok()) return util::Status::failure(feature.error().code);
    out.tls_features->push_back(feature.value());
    if (feature.value() == 5) out.must_staple = true;
  }
  return util::Status::success();
}

util::Status decode_san(util::BytesView value, Extensions& out) {
  Reader r(value);
  auto seq = r.expect_view(Tag::kSequence);
  if (!seq.ok()) return util::Status::failure(seq.error().code);
  Reader body(seq.value().content);
  while (!body.at_end()) {
    auto name = body.read_any_view();
    if (!name.ok()) return util::Status::failure(name.error().code);
    if (name.value().is_context(2, false)) {
      out.san_dns.push_back(util::text_of(name.value().content));
    }
  }
  return util::Status::success();
}

util::Status decode_basic_constraints(util::BytesView value, Extensions& out) {
  Reader r(value);
  auto seq = r.expect_view(Tag::kSequence);
  if (!seq.ok()) return util::Status::failure(seq.error().code);
  Reader body(seq.value().content);
  bool is_ca = false;
  if (!body.at_end() && body.peek_tag() == static_cast<std::uint8_t>(Tag::kBoolean)) {
    auto flag = body.read_boolean();
    if (!flag.ok()) return util::Status::failure(flag.error().code);
    is_ca = flag.value();
  }
  out.is_ca = is_ca;
  return util::Status::success();
}

}  // namespace

// ---------------------------------------------------------------------------
// Certificate
// ---------------------------------------------------------------------------

util::Bytes Certificate::fingerprint() const {
  return crypto::Sha256::hash(encode_der());
}

bool Certificate::verify_signature(const crypto::PublicKey& issuer_key) const {
  return issuer_key.verify(tbs_der_, signature_);
}

util::Bytes Certificate::encode_der() const {
  Writer w;
  encode(w);
  return w.take();
}

void Certificate::encode(Writer& w) const {
  w.sequence([&](Writer& cert) {
    cert.raw(tbs_der_);
    write_algorithm_identifier(cert, signature_oid_for(sig_alg_));
    cert.bit_string(signature_);
  });
}

util::Result<Certificate> Certificate::parse(const util::Bytes& der) {
  // Zero-copy discipline (DESIGN.md §9): the whole TBS traversal runs on
  // views borrowing from `der`; only fields retained in the Certificate
  // (tbs_der_, serial_, signature_, key, names, extension strings) allocate.
  using R = Result<Certificate>;
  Reader top(der);
  auto outer = top.expect_view(Tag::kSequence);
  if (!outer.ok()) return R::failure(outer.error().code, outer.error().detail);

  Reader cert_reader(outer.value().content);
  // Re-encode the TBS TLV so signatures verify over the exact bytes.
  auto tbs = cert_reader.expect_view(Tag::kSequence);
  if (!tbs.ok()) return R::failure(tbs.error().code, tbs.error().detail);
  Writer tbs_rewriter;
  tbs_rewriter.tlv(static_cast<std::uint8_t>(Tag::kSequence), tbs.value().content);

  Certificate cert;
  cert.tbs_der_ = tbs_rewriter.take();

  auto outer_alg = read_algorithm_identifier(cert_reader);
  if (!outer_alg.ok()) {
    return R::failure(outer_alg.error().code, outer_alg.error().detail);
  }
  if (outer_alg.value() == asn1::oids::sha256_with_rsa()) {
    cert.sig_alg_ = crypto::SignatureAlgorithm::kRsaSha256;
  } else if (outer_alg.value() == asn1::oids::sim_hash_sig()) {
    cert.sig_alg_ = crypto::SignatureAlgorithm::kSimHashSig;
  } else {
    return R::failure("x509.unknown_signature_algorithm",
                      outer_alg.value().to_string());
  }
  auto sig = cert_reader.read_bit_string_view();
  if (!sig.ok()) return R::failure(sig.error().code, sig.error().detail);
  cert.signature_ = sig.value().to_bytes();

  // --- TBS fields ---
  Reader tbs_reader(tbs.value().content);
  auto version = tbs_reader.expect_context_view(0, true);
  if (!version.ok()) return R::failure(version.error().code, "version");
  auto serial = tbs_reader.read_integer_bytes_view();
  if (!serial.ok()) return R::failure(serial.error().code, "serial");
  cert.serial_ = serial.value().to_bytes();
  auto tbs_alg = read_algorithm_identifier(tbs_reader);
  if (!tbs_alg.ok()) return R::failure(tbs_alg.error().code, "tbs algorithm");
  // RFC 5280 §4.1.1.2: the outer signatureAlgorithm MUST equal the TBS
  // signature field — the outer one is not covered by the signature.
  if (!(tbs_alg.value() == outer_alg.value())) {
    return R::failure("x509.algorithm_mismatch",
                      "outer signatureAlgorithm != tbs signature");
  }

  auto issuer_tlv = tbs_reader.expect_view(Tag::kSequence);
  if (!issuer_tlv.ok()) return R::failure(issuer_tlv.error().code, "issuer");
  auto issuer = DistinguishedName::decode(issuer_tlv.value());
  if (!issuer.ok()) return R::failure(issuer.error().code, "issuer");
  cert.issuer_ = issuer.value();

  auto validity_tlv = tbs_reader.expect_view(Tag::kSequence);
  if (!validity_tlv.ok()) return R::failure(validity_tlv.error().code, "validity");
  Reader validity_reader(validity_tlv.value().content);
  auto nb = validity_reader.read_generalized_time();
  if (!nb.ok()) return R::failure(nb.error().code, "notBefore");
  auto na = validity_reader.read_generalized_time();
  if (!na.ok()) return R::failure(na.error().code, "notAfter");
  cert.validity_ = Validity{nb.value(), na.value()};

  auto subject_tlv = tbs_reader.expect_view(Tag::kSequence);
  if (!subject_tlv.ok()) return R::failure(subject_tlv.error().code, "subject");
  auto subject = DistinguishedName::decode(subject_tlv.value());
  if (!subject.ok()) return R::failure(subject.error().code, "subject");
  cert.subject_ = subject.value();

  auto spki = tbs_reader.expect_view(Tag::kSequence);
  if (!spki.ok()) return R::failure(spki.error().code, "spki");
  Reader spki_reader(spki.value().content);
  auto spki_alg = read_algorithm_identifier(spki_reader);
  if (!spki_alg.ok()) return R::failure(spki_alg.error().code, "spki alg");
  auto key_bits = spki_reader.read_bit_string_view();
  if (!key_bits.ok()) return R::failure(key_bits.error().code, "spki key");
  auto key = crypto::PublicKey::decode(key_bits.value().to_bytes());
  if (!key.ok()) return R::failure(key.error().code, "spki key");
  cert.public_key_ = key.value();

  // Optional extensions.
  if (!tbs_reader.at_end()) {
    auto ext_wrapper = tbs_reader.expect_context_view(3, true);
    if (!ext_wrapper.ok()) {
      return R::failure(ext_wrapper.error().code, "extensions");
    }
    Reader ext_outer(ext_wrapper.value().content);
    auto ext_seq = ext_outer.expect_view(Tag::kSequence);
    if (!ext_seq.ok()) return R::failure(ext_seq.error().code, "extensions");
    Reader exts(ext_seq.value().content);
    while (!exts.at_end()) {
      auto ext = exts.expect_view(Tag::kSequence);
      if (!ext.ok()) return R::failure(ext.error().code, "extension");
      Reader ext_reader(ext.value().content);
      auto oid = ext_reader.read_oid();
      if (!oid.ok()) return R::failure(oid.error().code, "extension oid");
      if (ext_reader.peek_tag() == static_cast<std::uint8_t>(Tag::kBoolean)) {
        auto critical = ext_reader.read_boolean();
        if (!critical.ok()) return R::failure(critical.error().code, "critical");
      }
      auto value = ext_reader.read_octet_string_view();
      if (!value.ok()) return R::failure(value.error().code, "extension value");

      util::Status status = util::Status::success();
      if (oid.value() == asn1::oids::authority_info_access()) {
        status = decode_aia(value.value(), cert.extensions_);
      } else if (oid.value() == asn1::oids::crl_distribution_points()) {
        status = decode_crldp(value.value(), cert.extensions_);
      } else if (oid.value() == asn1::oids::tls_feature()) {
        status = decode_tls_feature(value.value(), cert.extensions_);
      } else if (oid.value() == asn1::oids::subject_alt_name()) {
        status = decode_san(value.value(), cert.extensions_);
      } else if (oid.value() == asn1::oids::basic_constraints()) {
        status = decode_basic_constraints(value.value(), cert.extensions_);
      }
      if (!status.ok()) return R::failure(status.error().code, "extension body");
    }
  }
  return cert;
}

// ---------------------------------------------------------------------------
// CertificateBuilder
// ---------------------------------------------------------------------------

CertificateBuilder& CertificateBuilder::serial(util::Bytes serial) {
  serial_ = std::move(serial);
  return *this;
}

CertificateBuilder& CertificateBuilder::serial_number(std::uint64_t serial) {
  util::Bytes bytes;
  for (int i = 7; i >= 0; --i) {
    const auto b = static_cast<std::uint8_t>(serial >> (8 * i));
    if (!bytes.empty() || b != 0 || i == 0) bytes.push_back(b);
  }
  return this->serial(std::move(bytes));
}

CertificateBuilder& CertificateBuilder::subject(DistinguishedName name) {
  subject_ = std::move(name);
  return *this;
}

CertificateBuilder& CertificateBuilder::issuer(DistinguishedName name) {
  issuer_ = std::move(name);
  return *this;
}

CertificateBuilder& CertificateBuilder::validity(util::SimTime not_before,
                                                 util::SimTime not_after) {
  validity_ = Validity{not_before, not_after};
  return *this;
}

CertificateBuilder& CertificateBuilder::public_key(crypto::PublicKey key) {
  public_key_ = std::move(key);
  return *this;
}

CertificateBuilder& CertificateBuilder::add_ocsp_url(std::string url) {
  extensions_.ocsp_urls.push_back(std::move(url));
  return *this;
}

CertificateBuilder& CertificateBuilder::ca_issuers_url(std::string url) {
  extensions_.ca_issuers_url = std::move(url);
  return *this;
}

CertificateBuilder& CertificateBuilder::add_crl_url(std::string url) {
  extensions_.crl_urls.push_back(std::move(url));
  return *this;
}

CertificateBuilder& CertificateBuilder::must_staple(bool enabled) {
  extensions_.must_staple = enabled;
  return *this;
}

CertificateBuilder& CertificateBuilder::tls_features(
    std::vector<std::int64_t> features) {
  extensions_.must_staple =
      std::find(features.begin(), features.end(), 5) != features.end();
  extensions_.tls_features = std::move(features);
  return *this;
}

CertificateBuilder& CertificateBuilder::add_san(std::string dns_name) {
  extensions_.san_dns.push_back(std::move(dns_name));
  return *this;
}

CertificateBuilder& CertificateBuilder::ca(bool is_ca) {
  extensions_.is_ca = is_ca;
  return *this;
}

util::Bytes CertificateBuilder::encode_tbs(
    crypto::SignatureAlgorithm sig_alg) const {
  Writer w;
  w.sequence([&](Writer& tbs) {
    tbs.explicit_context(0, [](Writer& v) { v.integer(2); });  // v3
    tbs.integer_bytes(serial_);
    write_algorithm_identifier(tbs, signature_oid_for(sig_alg));
    issuer_.encode(tbs);
    tbs.sequence([&](Writer& validity) {
      validity.generalized_time(validity_.not_before);
      validity.generalized_time(validity_.not_after);
    });
    subject_.encode(tbs);
    tbs.sequence([&](Writer& spki) {
      write_algorithm_identifier(
          spki, public_key_.algorithm() == crypto::SignatureAlgorithm::kRsaSha256
                    ? asn1::oids::rsa_encryption()
                    : asn1::oids::sim_hash_sig());
      spki.bit_string(public_key_.encode());
    });
    const bool tls_feature_present =
        extensions_.must_staple || extensions_.tls_features.has_value();
    const bool any_ext = !extensions_.ocsp_urls.empty() ||
                         extensions_.ca_issuers_url.has_value() ||
                         !extensions_.crl_urls.empty() ||
                         tls_feature_present ||
                         !extensions_.san_dns.empty() ||
                         extensions_.is_ca.has_value();
    if (any_ext) {
      tbs.explicit_context(3, [&](Writer& wrapper) {
        wrapper.sequence([&](Writer& exts) {
          if (!extensions_.ocsp_urls.empty() || extensions_.ca_issuers_url) {
            write_extension(exts, asn1::oids::authority_info_access(), false,
                            encode_aia(extensions_));
          }
          if (!extensions_.crl_urls.empty()) {
            write_extension(exts, asn1::oids::crl_distribution_points(), false,
                            encode_crldp(extensions_.crl_urls));
          }
          if (tls_feature_present) {
            write_extension(exts, asn1::oids::tls_feature(), false,
                            encode_tls_feature(extensions_.tls_features
                                                   ? *extensions_.tls_features
                                                   : std::vector<std::int64_t>{
                                                         5}));
          }
          if (!extensions_.san_dns.empty()) {
            write_extension(exts, asn1::oids::subject_alt_name(), false,
                            encode_san(extensions_.san_dns));
          }
          if (extensions_.is_ca.has_value()) {
            write_extension(exts, asn1::oids::basic_constraints(), true,
                            encode_basic_constraints(*extensions_.is_ca));
          }
        });
      });
    }
  });
  return w.take();
}

Certificate CertificateBuilder::sign(const crypto::KeyPair& issuer_key) const {
  if (serial_.empty()) {
    throw std::logic_error("CertificateBuilder: serial is required");
  }
  if (public_key_.empty()) {
    throw std::logic_error("CertificateBuilder: public key is required");
  }
  if (subject_.common_name.empty()) {
    throw std::logic_error("CertificateBuilder: subject CN is required");
  }
  Certificate cert;
  cert.serial_ = serial_;
  cert.subject_ = subject_;
  cert.issuer_ = issuer_;
  cert.validity_ = validity_;
  cert.public_key_ = public_key_;
  cert.extensions_ = extensions_;
  cert.sig_alg_ = issuer_key.algorithm();
  cert.tbs_der_ = encode_tbs(cert.sig_alg_);
  cert.signature_ = issuer_key.sign(cert.tbs_der_);
  return cert;
}

}  // namespace mustaple::x509
