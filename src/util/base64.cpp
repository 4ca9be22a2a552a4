#include "util/base64.hpp"

#include <array>

namespace mustaple::util {

namespace {

constexpr char kStandard[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
constexpr char kUrlSafe[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

std::string encode_with(const Bytes& data, const char* alphabet, bool pad) {
  std::string out;
  out.reserve((data.size() + 2) / 3 * 4);
  std::size_t i = 0;
  while (i + 3 <= data.size()) {
    const std::uint32_t v = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8) |
                            data[i + 2];
    out.push_back(alphabet[(v >> 18) & 0x3f]);
    out.push_back(alphabet[(v >> 12) & 0x3f]);
    out.push_back(alphabet[(v >> 6) & 0x3f]);
    out.push_back(alphabet[v & 0x3f]);
    i += 3;
  }
  const std::size_t rest = data.size() - i;
  if (rest == 1) {
    const std::uint32_t v = static_cast<std::uint32_t>(data[i]) << 16;
    out.push_back(alphabet[(v >> 18) & 0x3f]);
    out.push_back(alphabet[(v >> 12) & 0x3f]);
    if (pad) {
      out.push_back('=');
      out.push_back('=');
    }
  } else if (rest == 2) {
    const std::uint32_t v = (static_cast<std::uint32_t>(data[i]) << 16) |
                            (static_cast<std::uint32_t>(data[i + 1]) << 8);
    out.push_back(alphabet[(v >> 18) & 0x3f]);
    out.push_back(alphabet[(v >> 12) & 0x3f]);
    out.push_back(alphabet[(v >> 6) & 0x3f]);
    if (pad) out.push_back('=');
  }
  return out;
}

using Table = std::array<std::int8_t, 256>;

Table make_table(const char* alphabet) {
  Table table;
  table.fill(-1);
  for (int i = 0; i < 64; ++i) {
    table[static_cast<std::size_t>(
        static_cast<unsigned char>(alphabet[i]))] = static_cast<std::int8_t>(i);
  }
  return table;
}

const Table& standard_table() {
  static const Table table = make_table(kStandard);
  return table;
}

const Table& url_safe_table() {
  static const Table table = make_table(kUrlSafe);
  return table;
}

// The one decoder. The text in `buf` may use `first` or `second` (pass one
// table twice for a single alphabet) but not both; a character both accept
// has the same value in each. Output is written over the text it came from:
// three bytes per four characters, so the write position never passes the
// read position. Fails with the code decoding with `second` alone gives.
Status decode_in_place(Bytes& buf, const Table& first, const Table& second) {
  // Strip padding.
  std::size_t length = buf.size();
  while (length > 0 && buf[length - 1] == '=') --length;
  if (length % 4 == 1) return Status::failure("base64.bad_length");

  bool first_only = false;   // saw a character only `first` accepts
  bool second_only = false;  // saw a character only `second` accepts
  std::uint32_t acc = 0;
  int bits = 0;
  std::size_t written = 0;
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint8_t c = buf[i];
    const std::int8_t a = first[c];
    const std::int8_t b = second[c];
    first_only = first_only || b < 0;
    second_only = second_only || a < 0;
    if ((a < 0 && b < 0) || (first_only && second_only)) {
      return Status::failure("base64.bad_character",
                             std::string(1, static_cast<char>(c)));
    }
    acc = (acc << 6) | static_cast<std::uint32_t>(a >= 0 ? a : b);
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      buf[written++] = static_cast<std::uint8_t>(acc >> bits);
    }
  }
  // Leftover bits must be zero (canonical encoding). Text only `first`
  // accepts fails in `second` on its characters before its bits.
  if (bits > 0 && (acc & ((1u << bits) - 1)) != 0) {
    return Status::failure(first_only ? "base64.bad_character"
                                      : "base64.nonzero_trailing_bits");
  }
  buf.resize(written);
  return Status::success();
}

Result<Bytes> decode_with(const std::string& text, const Table& table) {
  Bytes buf(text.begin(), text.end());
  const Status status = decode_in_place(buf, table, table);
  if (!status.ok()) return status.error();
  return buf;
}

}  // namespace

std::string base64_encode(const Bytes& data) {
  return encode_with(data, kStandard, /*pad=*/true);
}

Result<Bytes> base64_decode(const std::string& text) {
  return decode_with(text, standard_table());
}

std::string base64url_encode(const Bytes& data) {
  return encode_with(data, kUrlSafe, /*pad=*/false);
}

Result<Bytes> base64url_decode(const std::string& text) {
  return decode_with(text, url_safe_table());
}

Status base64_decode_in_place(Bytes& buf) {
  return decode_in_place(buf, url_safe_table(), standard_table());
}

}  // namespace mustaple::util
