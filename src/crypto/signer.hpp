// Unified signing interface over two algorithms:
//
//  * kRsaSha256 — real RSA-with-SHA-256 over the from-scratch BigInt. Used in
//    unit tests, examples, and small-scale experiments.
//  * kSimHashSig — simulation-grade keyed-hash "signature":
//    HMAC-SHA256(public key bytes, message). Anyone holding the public key
//    could forge it, which is fine inside a closed simulation; what matters
//    for the study is that verification deterministically FAILS when the
//    message was tampered with or the wrong key is used — exactly the
//    "Incorrect signature" classification of paper §5.3 — while costing
//    nanoseconds instead of milliseconds at fleet scale. A sim KeyPair
//    absorbs its HMAC pads once, when the key is generated (HmacSha256Key),
//    so signing costs the message's compressions plus two and allocates
//    only the returned signature; verifying allocates nothing.
//
// The algorithm travels inside the key material, so a mixed ecosystem works.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "util/bytes.hpp"
#include "util/bytes_view.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace mustaple::crypto {

enum class SignatureAlgorithm : std::uint8_t {
  kRsaSha256 = 1,
  kSimHashSig = 2,
};

const char* to_string(SignatureAlgorithm alg);

/// A verification key. Carries its algorithm tag plus algorithm-specific key
/// bytes (RSAPublicKey DER, or the 32-byte sim key id).
class PublicKey {
 public:
  PublicKey() = default;
  PublicKey(SignatureAlgorithm alg, util::Bytes key_bytes)
      : alg_(alg), key_bytes_(std::move(key_bytes)) {}

  SignatureAlgorithm algorithm() const { return alg_; }
  const util::Bytes& key_bytes() const { return key_bytes_; }

  /// Wire form: one algorithm byte followed by the key bytes. Embedded in
  /// certificates' SubjectPublicKeyInfo BIT STRING.
  util::Bytes encode() const;
  static util::Result<PublicKey> decode(const util::Bytes& wire);

  /// A simulation-grade key's public half, drawn as KeyPair::generate_sim
  /// draws it, for a holder that never signs (an issued leaf): it skips
  /// absorbing the HMAC pads.
  static PublicKey generate_sim(util::Rng& rng);

  /// Checks a signature over `message`.
  bool verify(const util::Bytes& message, const util::Bytes& signature) const;

  bool empty() const { return key_bytes_.empty(); }

  friend bool operator==(const PublicKey& a, const PublicKey& b) {
    return a.alg_ == b.alg_ && a.key_bytes_ == b.key_bytes_;
  }

 private:
  SignatureAlgorithm alg_ = SignatureAlgorithm::kSimHashSig;
  util::Bytes key_bytes_;
};

/// A signing key (public + private halves).
class KeyPair {
 public:
  /// Real RSA keypair; `modulus_bits` >= 256.
  static KeyPair generate_rsa(std::size_t modulus_bits, util::Rng& rng);
  /// Simulation-grade keyed-hash keypair (instant).
  static KeyPair generate_sim(util::Rng& rng);

  const PublicKey& public_key() const { return public_key_; }
  SignatureAlgorithm algorithm() const { return public_key_.algorithm(); }

  /// Signs `message`. The view overload is the implementation; the
  /// const-ref overload keeps temporaries (a payload built in the call)
  /// legal, as Oid::decode_content does.
  util::Bytes sign(util::BytesView message) const;
  util::Bytes sign(const util::Bytes& message) const {
    return sign(util::BytesView(message));
  }

 private:
  KeyPair() = default;
  PublicKey public_key_;
  // Exactly one of the following is populated, per the algorithm tag.
  std::shared_ptr<const RsaKeyPair> rsa_;  // shared: KeyPair is copied into CA registries
  std::optional<HmacSha256Key> sim_key_;   // keyed by the public key bytes
};

}  // namespace mustaple::crypto
