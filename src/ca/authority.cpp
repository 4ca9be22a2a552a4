#include "ca/authority.hpp"

namespace mustaple::ca {

namespace {

crypto::KeyPair make_key(util::Rng& rng, bool use_rsa) {
  return use_rsa ? crypto::KeyPair::generate_rsa(512, rng)
                 : crypto::KeyPair::generate_sim(rng);
}

util::Bytes random_serial(util::Rng& rng, std::uint64_t sequence) {
  // 16-byte serial: 8 random bytes + 8-byte sequence, unique per CA.
  util::Bytes serial(16);
  rng.fill(serial.data(), 8);
  for (int i = 0; i < 8; ++i) {
    serial[static_cast<std::size_t>(8 + i)] =
        static_cast<std::uint8_t>(sequence >> (56 - 8 * i));
  }
  if (serial[0] == 0) serial[0] = 1;  // keep the top byte non-zero
  return serial;
}

}  // namespace

CertificateAuthority::CertificateAuthority(std::string name,
                                           util::SimTime founded,
                                           util::Rng& rng, bool use_rsa)
    : name_(std::move(name)),
      root_key_(make_key(rng, use_rsa)),
      intermediate_key_(make_key(rng, use_rsa)) {
  const x509::DistinguishedName root_dn{name_ + " Root CA", name_, "US"};
  const x509::DistinguishedName intermediate_dn{name_ + " Issuing CA", name_,
                                                "US"};
  root_cert_ = x509::CertificateBuilder()
                   .serial_number(1)
                   .subject(root_dn)
                   .issuer(root_dn)
                   .validity(founded, founded + util::Duration::days(20 * 365))
                   .public_key(root_key_.public_key())
                   .ca(true)
                   .sign(root_key_);
  intermediate_cert_ =
      x509::CertificateBuilder()
          .serial_number(2)
          .subject(intermediate_dn)
          .issuer(root_dn)
          .validity(founded, founded + util::Duration::days(10 * 365))
          .public_key(intermediate_key_.public_key())
          .ca(true)
          .sign(root_key_);
  next_serial_ = 3;
  // The intermediate itself is a certificate this CA can answer for —
  // needed by RFC 6961 multi-staple clients checking the whole chain.
  issued_.insert(intermediate_cert_.serial());
}

x509::Certificate CertificateAuthority::issue(const LeafRequest& request,
                                              util::Rng& rng) {
  x509::CertificateBuilder builder;
  builder.serial(random_serial(rng, next_serial_++))
      .subject(x509::DistinguishedName{request.domain, "", ""})
      .issuer(intermediate_cert_.subject())
      .validity(request.not_before, request.not_before + request.lifetime)
      .public_key(crypto::PublicKey::generate_sim(rng))
      .must_staple(request.must_staple)
      .add_san(request.domain);
  for (const auto& url : request.ocsp_urls) builder.add_ocsp_url(url);
  for (const auto& url : request.crl_urls) builder.add_crl_url(url);
  for (const auto& san : request.extra_sans) builder.add_san(san);
  x509::Certificate leaf = builder.sign(intermediate_key_);
  issued_.insert(leaf.serial());
  return leaf;
}

std::vector<x509::Certificate> CertificateAuthority::chain_for(
    const x509::Certificate& leaf) const {
  return {leaf, intermediate_cert_};
}

void CertificateAuthority::revoke(const util::Bytes& serial,
                                  util::SimTime when,
                                  std::optional<crl::ReasonCode> reason,
                                  const RevocationPolicy& policy) {
  crl_db_[serial] = RevocationRecord{when, reason};

  switch (policy.ocsp_ingest) {
    case RevocationPolicy::OcspIngest::kNormal: {
      RevocationRecord ocsp_record;
      ocsp_record.revocation_time = when + policy.ocsp_time_offset;
      ocsp_record.reason = policy.ocsp_drops_reason ? std::nullopt : reason;
      ocsp_db_[serial] = ocsp_record;
      break;
    }
    case RevocationPolicy::OcspIngest::kMissingAnswersGood:
      ocsp_ingest_failures_[serial] = ocsp::CertStatus::kGood;
      break;
    case RevocationPolicy::OcspIngest::kMissingAnswersUnknown:
      ocsp_ingest_failures_[serial] = ocsp::CertStatus::kUnknown;
      break;
  }
}

bool CertificateAuthority::was_issued(const util::Bytes& serial) const {
  return issued_.count(serial) > 0;
}

ocsp::CertStatus CertificateAuthority::ocsp_status(
    util::BytesView serial, ocsp::RevokedInfo* revoked_out) const {
  const auto failure = ocsp_ingest_failures_.find(serial);
  if (failure != ocsp_ingest_failures_.end()) return failure->second;
  const auto it = ocsp_db_.find(serial);
  if (it != ocsp_db_.end()) {
    if (revoked_out != nullptr) {
      revoked_out->revocation_time = it->second.revocation_time;
      revoked_out->reason = it->second.reason;
    }
    return ocsp::CertStatus::kRevoked;
  }
  if (issued_.count(serial) > 0) return ocsp::CertStatus::kGood;
  return ocsp::CertStatus::kUnknown;
}

const RevocationRecord* CertificateAuthority::crl_record(
    const util::Bytes& serial) const {
  const auto it = crl_db_.find(serial);
  return it == crl_db_.end() ? nullptr : &it->second;
}

crl::Crl CertificateAuthority::publish_crl(util::SimTime this_update,
                                           util::Duration validity) const {
  crl::CrlBuilder builder;
  builder.issuer(intermediate_cert_.subject())
      .this_update(this_update)
      .next_update(this_update + validity);
  // Entries in ascending serial order (Bytes order, which is also the
  // order of the serials' hex strings).
  for (const auto& [serial, record] : crl_db_) {
    builder.add_entry(
        crl::RevokedEntry{serial, record.revocation_time, record.reason});
  }
  return builder.sign(intermediate_key_);
}

x509::Certificate CertificateAuthority::issue_delegate(
    const crypto::PublicKey& delegate_key, util::SimTime now,
    util::Rng& rng) {
  return x509::CertificateBuilder()
      .serial(random_serial(rng, next_serial_++))
      .subject(x509::DistinguishedName{name_ + " OCSP Signer", name_, "US"})
      .issuer(intermediate_cert_.subject())
      .validity(now - util::Duration::days(365),
                now + util::Duration::days(365 * 50))
      .public_key(delegate_key)
      .sign(intermediate_key_);
}

}  // namespace mustaple::ca
