#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>

namespace mustaple::crypto {

HmacSha256Key::HmacSha256Key(util::BytesView key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    Sha256().update(key.data(), key.size()).digest_to(k.data());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  std::array<std::uint8_t, kBlock> pad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
  }
  inner_.update(pad.data(), kBlock);
  for (std::size_t i = 0; i < kBlock; ++i) {
    pad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }
  outer_.update(pad.data(), kBlock);
}

void HmacSha256Key::mac_to(util::BytesView message, std::uint8_t* out) const {
  std::uint8_t inner[kMacSize];
  Sha256(inner_).update(message.data(), message.size()).digest_to(inner);
  Sha256(outer_).update(inner, kMacSize).digest_to(out);
}

util::Bytes HmacSha256Key::mac(util::BytesView message) const {
  util::Bytes out(kMacSize);
  mac_to(message, out.data());
  return out;
}

util::Bytes hmac_sha256(const util::Bytes& key, const util::Bytes& message) {
  return HmacSha256Key(key).mac(message);
}

}  // namespace mustaple::crypto
