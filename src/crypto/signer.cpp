#include "crypto/signer.hpp"

#include <stdexcept>

namespace mustaple::crypto {

const char* to_string(SignatureAlgorithm alg) {
  switch (alg) {
    case SignatureAlgorithm::kRsaSha256:
      return "rsa-sha256";
    case SignatureAlgorithm::kSimHashSig:
      return "sim-hash-sig";
  }
  return "unknown";
}

util::Bytes PublicKey::encode() const {
  util::Bytes out;
  out.reserve(key_bytes_.size() + 1);
  out.push_back(static_cast<std::uint8_t>(alg_));
  util::append(out, key_bytes_);
  return out;
}

util::Result<PublicKey> PublicKey::decode(const util::Bytes& wire) {
  if (wire.empty()) {
    return util::Result<PublicKey>::failure("pubkey.empty");
  }
  const auto alg = static_cast<SignatureAlgorithm>(wire[0]);
  if (alg != SignatureAlgorithm::kRsaSha256 &&
      alg != SignatureAlgorithm::kSimHashSig) {
    return util::Result<PublicKey>::failure("pubkey.unknown_algorithm");
  }
  return PublicKey(alg, util::Bytes(wire.begin() + 1, wire.end()));
}

bool PublicKey::verify(const util::Bytes& message,
                       const util::Bytes& signature) const {
  switch (alg_) {
    case SignatureAlgorithm::kRsaSha256: {
      RsaPublicKey key;
      try {
        key = RsaPublicKey::decode_der(key_bytes_);
      } catch (const std::invalid_argument&) {
        return false;
      }
      return rsa_verify_sha256(key, message, signature);
    }
    case SignatureAlgorithm::kSimHashSig: {
      if (signature.size() != HmacSha256Key::kMacSize) return false;
      std::uint8_t expected[HmacSha256Key::kMacSize];
      HmacSha256Key(key_bytes_).mac_to(message, expected);
      return util::equal_constant_time(expected, signature.data(),
                                       HmacSha256Key::kMacSize);
    }
  }
  return false;
}

KeyPair KeyPair::generate_rsa(std::size_t modulus_bits, util::Rng& rng) {
  KeyPair kp;
  auto rsa = std::make_shared<RsaKeyPair>(RsaKeyPair::generate(modulus_bits, rng));
  kp.public_key_ =
      PublicKey(SignatureAlgorithm::kRsaSha256, rsa->public_key.encode_der());
  kp.rsa_ = std::move(rsa);
  return kp;
}

PublicKey PublicKey::generate_sim(util::Rng& rng) {
  util::Bytes id(32);
  rng.fill(id.data(), id.size());
  return PublicKey(SignatureAlgorithm::kSimHashSig, std::move(id));
}

KeyPair KeyPair::generate_sim(util::Rng& rng) {
  KeyPair kp;
  kp.public_key_ = PublicKey::generate_sim(rng);
  kp.sim_key_.emplace(kp.public_key_.key_bytes());
  return kp;
}

util::Bytes KeyPair::sign(util::BytesView message) const {
  switch (algorithm()) {
    case SignatureAlgorithm::kRsaSha256:
      return rsa_sign_sha256(*rsa_, message);
    case SignatureAlgorithm::kSimHashSig:
      return sim_key_->mac(message);
  }
  throw std::logic_error("KeyPair::sign: unreachable");
}

}  // namespace mustaple::crypto
