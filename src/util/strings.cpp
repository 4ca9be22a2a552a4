#include "util/strings.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace mustaple::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(ascii_lower(c));
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

namespace {

template <typename Out>
Status percent_decode_into(std::string_view text, Out& out) {
  const auto hex_nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out.reserve(out.size() + text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out.push_back(static_cast<typename Out::value_type>(text[i]));
      continue;
    }
    if (i + 2 >= text.size()) {  // fewer than two chars remain after '%'
      return Status::failure("strings.bad_percent_escape",
                             "truncated escape at offset " + std::to_string(i));
    }
    const int hi = hex_nibble(text[i + 1]);
    const int lo = hex_nibble(text[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::failure("strings.bad_percent_escape",
                             std::string(text.substr(i, 3)));
    }
    out.push_back(static_cast<typename Out::value_type>((hi << 4) | lo));
    i += 2;
  }
  return Status::success();
}

}  // namespace

Result<std::string> percent_decode(std::string_view text) {
  std::string out;
  const Status status = percent_decode_into(text, out);
  if (!status.ok()) return status.error();
  return out;
}

Status percent_decode(std::string_view text, Bytes& out) {
  return percent_decode_into(text, out);
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args);
  return out;
}

}  // namespace mustaple::util
