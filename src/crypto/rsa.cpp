#include "crypto/rsa.hpp"

#include <stdexcept>

#include "asn1/der.hpp"
#include "crypto/sha256.hpp"

namespace mustaple::crypto {

namespace {

// DigestInfo prefix for SHA-256 per RFC 8017 §9.2 (the fixed DER blob).
const util::Bytes& sha256_digest_info_prefix() {
  static const util::Bytes prefix = util::from_hex(
      "3031300d060960864801650304020105000420");
  return prefix;
}

util::Bytes build_em(util::BytesView message, std::size_t em_len) {
  util::Bytes t = sha256_digest_info_prefix();
  util::append(t, Sha256().update(message.data(), message.size()).digest());
  if (em_len < t.size() + 11) {
    throw std::length_error("rsa: modulus too small for SHA-256 DigestInfo");
  }
  util::Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t.size() - 3, 0xff);
  em.push_back(0x00);
  util::append(em, t);
  return em;
}

}  // namespace

util::Bytes RsaPublicKey::encode_der() const {
  asn1::Writer w;
  w.sequence([&](asn1::Writer& seq) {
    seq.integer_bytes(modulus.to_bytes_be());
    seq.integer_bytes(public_exponent.to_bytes_be());
  });
  return w.take();
}

RsaPublicKey RsaPublicKey::decode_der(const util::Bytes& der) {
  asn1::Reader reader(der);
  auto seq = reader.expect(asn1::Tag::kSequence);
  if (!seq.ok()) throw std::invalid_argument("RsaPublicKey: " + seq.error().to_string());
  asn1::Reader body(seq.value().content);
  auto n = body.read_integer_bytes();
  if (!n.ok()) throw std::invalid_argument("RsaPublicKey: " + n.error().to_string());
  auto e = body.read_integer_bytes();
  if (!e.ok()) throw std::invalid_argument("RsaPublicKey: " + e.error().to_string());
  return RsaPublicKey{BigInt::from_bytes_be(n.value()),
                      BigInt::from_bytes_be(e.value())};
}

RsaKeyPair RsaKeyPair::generate(std::size_t modulus_bits, util::Rng& rng) {
  if (modulus_bits < 256) {
    throw std::invalid_argument("RsaKeyPair::generate: modulus too small");
  }
  const BigInt e(65537);
  const BigInt one(1);
  for (;;) {
    const BigInt p = BigInt::generate_prime(modulus_bits / 2, rng);
    const BigInt q = BigInt::generate_prime(modulus_bits - modulus_bits / 2, rng);
    if (p == q) continue;
    const BigInt n = p * q;
    const BigInt phi = (p - one) * (q - one);
    if (!(BigInt::gcd(e, phi) == one)) continue;
    const BigInt d = BigInt::mod_inverse(e, phi);
    if (d.is_zero()) continue;
    return RsaKeyPair{RsaPublicKey{n, e}, d};
  }
}

util::Bytes rsa_sign_sha256(const RsaKeyPair& key, util::BytesView message) {
  const std::size_t k = key.public_key.modulus_bytes();
  const util::Bytes em = build_em(message, k);
  const BigInt m = BigInt::from_bytes_be(em);
  const BigInt s = BigInt::mod_exp(m, key.private_exponent, key.public_key.modulus);
  return s.to_bytes_be_padded(k);
}

bool rsa_verify_sha256(const RsaPublicKey& key, const util::Bytes& message,
                       const util::Bytes& signature) {
  const std::size_t k = key.modulus_bytes();
  if (signature.size() != k) return false;
  const BigInt s = BigInt::from_bytes_be(signature);
  if (!(s < key.modulus)) return false;
  const BigInt m = BigInt::mod_exp(s, key.public_exponent, key.modulus);
  util::Bytes em;
  try {
    em = m.to_bytes_be_padded(k);
  } catch (const std::length_error&) {
    return false;
  }
  util::Bytes expected;
  try {
    expected = build_em(message, k);
  } catch (const std::length_error&) {
    return false;
  }
  return util::equal_constant_time(em, expected);
}

}  // namespace mustaple::crypto
