// HMAC-SHA256 (RFC 2104). Backs the simulation-grade signer, which keys it
// once: an HmacSha256Key absorbs the key's ipad and opad blocks when it is
// built, so each MAC under it costs the message's compressions plus two
// and allocates nothing.
#pragma once

#include <cstdint>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/bytes_view.hpp"

namespace mustaple::crypto {

/// An HMAC-SHA256 key with its pads absorbed: the SHA-256 states after the
/// (key ^ ipad) and (key ^ opad) blocks. mac_to() works on copies of them,
/// so a key is immutable once built and serves concurrent callers.
class HmacSha256Key {
 public:
  static constexpr std::size_t kMacSize = Sha256::kDigestSize;

  explicit HmacSha256Key(util::BytesView key);

  /// Writes HMAC-SHA256(key, message) to out[0, kMacSize).
  void mac_to(util::BytesView message, std::uint8_t* out) const;
  util::Bytes mac(util::BytesView message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Computes HMAC-SHA256(key, message): HmacSha256Key's one-shot form.
util::Bytes hmac_sha256(const util::Bytes& key, const util::Bytes& message);

}  // namespace mustaple::crypto
