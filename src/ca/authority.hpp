// A simulated certificate authority: a self-signed root, an issuing
// intermediate, issuance/revocation, and — crucially for §5.4 — TWO
// revocation databases. The paper's disclosure responses (Quovadis,
// Camerfirma) revealed that real CAs maintain separate CRL and OCSP status
// databases, which is exactly how status discrepancies (Table 1) and
// revocation-time skew (Fig 10) arise; we model that directly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "crl/crl.hpp"
#include "crypto/signer.hpp"
#include "ocsp/types.hpp"
#include "util/bytes_view.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"
#include "x509/certificate.hpp"

namespace mustaple::ca {

/// Parameters for issuing one leaf certificate.
struct LeafRequest {
  std::string domain;
  util::SimTime not_before{};
  util::Duration lifetime = util::Duration::days(90);
  bool must_staple = false;
  std::vector<std::string> ocsp_urls;  ///< AIA id-ad-ocsp
  std::vector<std::string> crl_urls;   ///< CRL Distribution Points
  std::vector<std::string> extra_sans;
};

/// One revocation record in a status database.
struct RevocationRecord {
  util::SimTime revocation_time{};
  std::optional<crl::ReasonCode> reason;
};

/// How the CA propagates a revocation into its two databases.
struct RevocationPolicy {
  /// Offset applied to the OCSP database's recorded revocation time
  /// relative to the CRL's (positive = OCSP lags, the ocsp.msocsp.com
  /// pattern of 7 hours to 9 days; negative = OCSP leads, the 14.7% of
  /// Fig 10 with negative deltas).
  util::Duration ocsp_time_offset{};
  /// The paper finds 99.99% of reason-code discrepancies are "CRL carries a
  /// reason, OCSP does not"; when set, the OCSP DB drops the reason code.
  bool ocsp_drops_reason = true;
  /// Table 1 pathologies: the OCSP DB fails to ingest the revocation at
  /// all, so the responder answers Good (5 CAs) or Unknown (2 CAs, e.g.
  /// rejected-on-insertion rows à la Quovadis' max-character-size bug).
  enum class OcspIngest { kNormal, kMissingAnswersGood, kMissingAnswersUnknown };
  OcspIngest ocsp_ingest = OcspIngest::kNormal;
};

/// A certificate authority with root + issuing intermediate.
class CertificateAuthority {
 public:
  /// `use_rsa` selects real RSA keys (tests/examples) vs simulation-grade
  /// keys (fleet-scale runs).
  CertificateAuthority(std::string name, util::SimTime founded, util::Rng& rng,
                       bool use_rsa = false);

  const std::string& name() const { return name_; }
  const x509::Certificate& root_cert() const { return root_cert_; }
  const x509::Certificate& intermediate_cert() const { return intermediate_cert_; }
  const crypto::KeyPair& intermediate_key() const { return intermediate_key_; }

  /// Issues a leaf signed by the intermediate. Serial numbers are unique
  /// per CA.
  x509::Certificate issue(const LeafRequest& request, util::Rng& rng);

  /// Certificate chain to present in handshakes: {leaf, intermediate}.
  std::vector<x509::Certificate> chain_for(const x509::Certificate& leaf) const;

  /// Revokes a serial at `when` per `policy`, updating both databases.
  void revoke(const util::Bytes& serial, util::SimTime when,
              std::optional<crl::ReasonCode> reason,
              const RevocationPolicy& policy);

  bool was_issued(const util::Bytes& serial) const;

  /// OCSP-database lookup (what the responder consults). The view overload
  /// takes a request's serial where it lies and builds no key; the const-ref
  /// one keeps temporaries legal.
  ocsp::CertStatus ocsp_status(util::BytesView serial,
                               ocsp::RevokedInfo* revoked_out) const;
  ocsp::CertStatus ocsp_status(const util::Bytes& serial,
                               ocsp::RevokedInfo* revoked_out) const {
    return ocsp_status(util::BytesView(serial), revoked_out);
  }
  /// CRL-database lookup.
  const RevocationRecord* crl_record(const util::Bytes& serial) const;

  /// Builds the current CRL from the CRL database.
  crl::Crl publish_crl(util::SimTime this_update,
                       util::Duration validity) const;

  /// Issues a delegated OCSP-signing certificate (signed by the
  /// intermediate) for Signature Authority Delegation.
  x509::Certificate issue_delegate(const crypto::PublicKey& delegate_key,
                                   util::SimTime now, util::Rng& rng);

  std::size_t issued_count() const { return issued_.size(); }
  std::size_t crl_entry_count() const { return crl_db_.size(); }

 private:
  std::string name_;
  crypto::KeyPair root_key_;
  crypto::KeyPair intermediate_key_;
  x509::Certificate root_cert_;
  x509::Certificate intermediate_cert_;
  std::uint64_t next_serial_ = 1;

  // serial -> record. Two independent databases, per the paper. Keyed by
  // the serial's bytes in Bytes order, searchable by view.
  std::map<util::Bytes, RevocationRecord, util::BytesLess> crl_db_;
  std::map<util::Bytes, RevocationRecord, util::BytesLess> ocsp_db_;
  // Serials the OCSP ingest dropped, with the configured answer.
  std::map<util::Bytes, ocsp::CertStatus, util::BytesLess>
      ocsp_ingest_failures_;
  std::set<util::Bytes, util::BytesLess> issued_;
};

}  // namespace mustaple::ca
