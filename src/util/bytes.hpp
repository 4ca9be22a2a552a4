// Byte-buffer helpers shared by every wire-format module.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mustaple::util {

/// The library-wide owning byte buffer. DER objects, OCSP bodies, HTTP
/// payloads, and signatures are all carried as `Bytes`.
using Bytes = std::vector<std::uint8_t>;

/// Encodes `data` as lowercase hex ("deadbeef").
std::string to_hex(const Bytes& data);

/// Decodes a hex string (case-insensitive, no separators). Throws
/// std::invalid_argument on odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Copies a string's bytes into a buffer (no NUL terminator).
Bytes bytes_of(std::string_view text);

/// Interprets a buffer as text (lossy for non-ASCII payloads; intended for
/// diagnostics and for HTTP bodies known to be textual).
std::string text_of(const Bytes& data);

/// Appends `src` to `dst`.
void append(Bytes& dst, const Bytes& src);

/// Constant-time equality; used for signature/MAC comparison so simulated
/// verification mirrors real-world practice. The pointer form compares
/// `n` bytes of each, for a MAC held outside a Bytes.
bool equal_constant_time(const Bytes& a, const Bytes& b);
bool equal_constant_time(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t n);

}  // namespace mustaple::util
