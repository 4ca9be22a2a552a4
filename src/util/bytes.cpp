#include "util/bytes.hpp"

#include <stdexcept>

namespace mustaple::util {

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string to_hex(const Bytes& data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes bytes_of(std::string_view text) {
  return Bytes(text.begin(), text.end());
}

std::string text_of(const Bytes& data) {
  return std::string(data.begin(), data.end());
}

void append(Bytes& dst, const Bytes& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

bool equal_constant_time(const Bytes& a, const Bytes& b) {
  return a.size() == b.size() &&
         equal_constant_time(a.data(), b.data(), a.size());
}

bool equal_constant_time(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t n) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < n; ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace mustaple::util
