// String helpers used across HTTP parsing, DNS names, and report rendering.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"

namespace mustaple::util {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Joins with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

/// One byte in ASCII lowercase, as std::tolower in the "C" locale.
constexpr unsigned char ascii_lower(char c) {
  const auto byte = static_cast<unsigned char>(c);
  return byte >= 'A' && byte <= 'Z'
             ? static_cast<unsigned char>(byte + ('a' - 'A'))
             : byte;
}

/// ASCII case-insensitive three-way comparison: the sign of
/// to_lower(a).compare(to_lower(b)), without either copy. Inline because
/// the simulated network's host-keyed tables compare with it per probe.
inline int compare_ignore_case(std::string_view a, std::string_view b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = ascii_lower(a[i]);
    const unsigned char cb = ascii_lower(b[i]);
    if (ca != cb) return ca < cb ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

inline bool equals_ignore_case(std::string_view a, std::string_view b) {
  return a.size() == b.size() && compare_ignore_case(a, b) == 0;
}

/// Trims ASCII whitespace from both ends; the result views `text`.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// RFC 3986 percent-decoding with strict escape validation: every '%' must
/// be followed by exactly two hex digits ("%GZ" and a truncated "%A" both
/// fail with "strings.bad_percent_escape"). All other bytes — including '+',
/// which is NOT form-decoded to a space in a URL path — pass through
/// unchanged, and decoded bytes may be anything, NUL included ("%00" decodes
/// to a NUL byte; whether that byte is acceptable is the caller's problem).
Result<std::string> percent_decode(std::string_view text);
/// The same decoding, appended to `out`: a caller that decodes further in
/// place (an OCSP GET path's base64) keeps one buffer.
Status percent_decode(std::string_view text, Bytes& out);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace mustaple::util
