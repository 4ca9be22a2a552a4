// Base64 (RFC 4648), standard and URL-safe alphabets. Needed for OCSP
// GET requests (RFC 6960 Appendix A.1: the request is base64-encoded into
// the URL path).
#pragma once

#include <string>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace mustaple::util {

/// Standard alphabet with '=' padding.
std::string base64_encode(const Bytes& data);

/// Decodes standard-alphabet base64 (padding required for partial groups).
Result<Bytes> base64_decode(const std::string& text);

/// URL-safe alphabet ('-', '_'), no padding — used in URL path segments.
std::string base64url_encode(const Bytes& data);

Result<Bytes> base64url_decode(const std::string& text);

/// Decodes base64 in either alphabet — URL-safe or standard, one of them
/// throughout — in place: `buf` holds the text on entry and the decoded
/// bytes on success. Accepts exactly what base64url_decode or base64_decode
/// accepts, and fails with base64_decode's error code.
Status base64_decode_in_place(Bytes& buf);

}  // namespace mustaple::util
