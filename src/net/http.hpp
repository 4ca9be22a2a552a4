// HTTP/1.1 message model with a real text serializer/parser. OCSP-over-HTTP
// (RFC 6960 Appendix A) rides on POST with Content-Type
// application/ocsp-request; the simulated responders and web servers speak
// this format on the wire so parser-level failures are honest.
//
// The codec is copy-free: serialize() sizes the message first and writes it
// into one buffer, and parse() walks the head as a string_view, allocating
// only for the fields the parsed message keeps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/bytes_view.hpp"
#include "util/result.hpp"

namespace mustaple::net {

/// Header map with case-insensitive keys: a flat vector of (lowercase name,
/// value) pairs in ascending name order, which is also the order
/// serialize() writes them in.
class HeaderMap {
 public:
  using Entry = std::pair<std::string, std::string>;

  /// Sets `name` (any case) to `value`; a later set replaces the value.
  void set(std::string_view name, std::string_view value);
  /// Returns empty string when absent.
  std::string get(const std::string& name) const;
  bool contains(const std::string& name) const;
  /// The value under `name` (any case), or nullptr; lowercases no copy.
  const std::string* find(std::string_view name) const;
  const std::vector<Entry>& entries() const { return headers_; }

  /// Parses the header lines of a message head (everything after the start
  /// line). Lines split on LF and are trimmed, blank lines are skipped, and
  /// a repeated header keeps its last value. Fails with http.bad_header on
  /// a line without a colon and http.duplicate_content_length when two
  /// Content-Length headers disagree.
  static util::Result<HeaderMap> parse(std::string_view lines);

 private:
  void put(std::string_view name, std::string_view value);

  std::vector<Entry> headers_;
};

/// A Content-Length value as a byte count; nullopt unless it is all digits
/// and fits in size_t.
std::optional<std::size_t> parse_content_length(std::string_view text);

struct HttpRequest {
  std::string method = "GET";
  std::string path = "/";
  HeaderMap headers;
  util::Bytes body;

  std::string host() const { return headers.get("host"); }

  /// Serializes to wire format (adds Content-Length).
  util::Bytes serialize() const;
  /// Parses a whole message: everything after the head is the body.
  static util::Result<HttpRequest> parse(util::BytesView wire);
  static util::Result<HttpRequest> parse(const util::Bytes& wire) {
    return parse(util::BytesView(wire));
  }
};

struct HttpResponse {
  int status_code = 200;
  std::string reason = "OK";
  HeaderMap headers;
  util::Bytes body;

  bool ok() const { return status_code == 200; }

  util::Bytes serialize() const;
  /// Appends the wire form to `out`, reusing its capacity.
  void serialize_to(util::Bytes& out) const;
  static util::Result<HttpResponse> parse(const util::Bytes& wire);

  static HttpResponse make(int status, std::string reason, util::Bytes body,
                           std::string_view content_type);
};

const char* default_reason(int status_code);

}  // namespace mustaple::net
