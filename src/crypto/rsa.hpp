// RSA keypairs and PKCS#1 v1.5-shaped signatures over SHA-256, built on the
// from-scratch BigInt. Key sizes in the simulation default to 512 bits —
// plenty for exercising real sign/verify code paths at simulation speed.
// (Nothing here is intended to resist a real adversary.)
#pragma once

#include <cstdint>

#include "crypto/bigint.hpp"
#include "util/bytes.hpp"
#include "util/bytes_view.hpp"
#include "util/rng.hpp"

namespace mustaple::crypto {

struct RsaPublicKey {
  BigInt modulus;          ///< n
  BigInt public_exponent;  ///< e (65537)

  std::size_t modulus_bytes() const { return (modulus.bit_length() + 7) / 8; }

  /// DER SEQUENCE { INTEGER n, INTEGER e } — the RSAPublicKey structure.
  util::Bytes encode_der() const;
  static RsaPublicKey decode_der(const util::Bytes& der);  ///< throws on error
};

struct RsaKeyPair {
  RsaPublicKey public_key;
  BigInt private_exponent;  ///< d

  /// Generates an RSA keypair with the given modulus size.
  static RsaKeyPair generate(std::size_t modulus_bits, util::Rng& rng);
};

/// Signs SHA-256(message) with a PKCS#1 v1.5-style padding:
///   0x00 0x01 0xFF.. 0x00 || DigestInfo(SHA-256, digest)
util::Bytes rsa_sign_sha256(const RsaKeyPair& key, util::BytesView message);

/// Verifies a signature produced by rsa_sign_sha256.
bool rsa_verify_sha256(const RsaPublicKey& key, const util::Bytes& message,
                       const util::Bytes& signature);

}  // namespace mustaple::crypto
