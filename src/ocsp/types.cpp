#include "ocsp/types.hpp"

#include "asn1/der.hpp"
#include "crypto/sha1.hpp"

namespace mustaple::ocsp {

CertId CertId::for_certificate(const x509::Certificate& subject,
                               const x509::Certificate& issuer) {
  CertId id = for_issuer(issuer);
  id.serial = subject.serial();
  return id;
}

CertId CertId::for_issuer(const x509::Certificate& issuer) {
  asn1::Writer issuer_name;
  issuer.subject().encode(issuer_name);
  CertId id;
  id.issuer_name_hash = crypto::Sha1::hash(issuer_name.bytes());
  id.issuer_key_hash = crypto::Sha1::hash(issuer.public_key().encode());
  return id;
}

const char* to_string(CertStatus status) {
  switch (status) {
    case CertStatus::kGood:
      return "good";
    case CertStatus::kRevoked:
      return "revoked";
    case CertStatus::kUnknown:
      return "unknown";
  }
  return "?";
}

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kSuccessful:
      return "successful";
    case ResponseStatus::kMalformedRequest:
      return "malformedRequest";
    case ResponseStatus::kInternalError:
      return "internalError";
    case ResponseStatus::kTryLater:
      return "tryLater";
    case ResponseStatus::kSigRequired:
      return "sigRequired";
    case ResponseStatus::kUnauthorized:
      return "unauthorized";
  }
  return "?";
}

}  // namespace mustaple::ocsp
