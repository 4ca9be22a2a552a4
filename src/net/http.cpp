#include "net/http.hpp"

#include <algorithm>
#include <charconv>
#include <limits>

#include "util/strings.hpp"

namespace mustaple::net {

namespace {

using util::Bytes;
using util::Result;

constexpr std::string_view kHeadEnd = "\r\n\r\n";
constexpr std::string_view kContentLength = "content-length";

std::string_view as_text(util::BytesView wire) {
  return {reinterpret_cast<const char*>(wire.data()), wire.size()};
}

void put_text(Bytes& out, std::string_view text) {
  out.insert(out.end(), text.begin(), text.end());
}

// Writes "<a> <b> <c>\r\n", the headers, a Content-Length line unless the
// caller set one, the blank line and the body, growing `out` at most once.
void write_message(Bytes& out, std::string_view a, std::string_view b,
                   std::string_view c, const HeaderMap& headers,
                   const Bytes& body) {
  char digits[24];
  std::string_view length;
  if (headers.find(kContentLength) == nullptr) {
    const auto [end, ec] =
        std::to_chars(digits, digits + sizeof(digits), body.size());
    length = std::string_view(digits, static_cast<std::size_t>(end - digits));
  }
  std::size_t size = a.size() + b.size() + c.size() + 4 + 2 + body.size();
  for (const auto& [name, value] : headers.entries()) {
    size += name.size() + value.size() + 4;
  }
  if (!length.empty()) size += kContentLength.size() + length.size() + 4;
  if (out.capacity() < out.size() + size) {
    out.reserve(std::max(out.size() + size, 2 * out.capacity()));
  }

  put_text(out, a);
  put_text(out, " ");
  put_text(out, b);
  put_text(out, " ");
  put_text(out, c);
  put_text(out, "\r\n");
  for (const auto& [name, value] : headers.entries()) {
    put_text(out, name);
    put_text(out, ": ");
    put_text(out, value);
    put_text(out, "\r\n");
  }
  if (!length.empty()) {
    put_text(out, kContentLength);
    put_text(out, ": ");
    put_text(out, length);
    put_text(out, "\r\n");
  }
  put_text(out, "\r\n");
  out.insert(out.end(), body.begin(), body.end());
}

// A message cut at its CRLFCRLF, as views into the wire bytes.
struct MessageParts {
  std::string_view start_line;    ///< raw, up to the first LF
  std::string_view header_lines;  ///< the rest of the head; may be empty
  util::BytesView body;           ///< everything after the CRLFCRLF
};

// nullopt when the head has no terminator.
std::optional<MessageParts> split_message(util::BytesView wire) {
  const std::string_view text = as_text(wire);
  const std::size_t end = text.find(kHeadEnd);
  if (end == std::string_view::npos) return std::nullopt;
  const std::string_view head = text.substr(0, end);
  const std::size_t lf = head.find('\n');
  MessageParts parts;
  parts.start_line = head.substr(0, lf);
  if (lf != std::string_view::npos) parts.header_lines = head.substr(lf + 1);
  parts.body = wire.drop_front(end + kHeadEnd.size());
  return parts;
}

// Compares a stored (lowercase) header name with `name` in any case.
bool name_less(const HeaderMap::Entry& entry, std::string_view name) {
  return util::compare_ignore_case(entry.first, name) < 0;
}

}  // namespace

void HeaderMap::set(std::string_view name, std::string_view value) {
  put(name, value);
}

std::string HeaderMap::get(const std::string& name) const {
  const std::string* value = find(name);
  return value ? *value : std::string();
}

bool HeaderMap::contains(const std::string& name) const {
  return find(name) != nullptr;
}

const std::string* HeaderMap::find(std::string_view name) const {
  const auto it =
      std::lower_bound(headers_.begin(), headers_.end(), name, name_less);
  if (it == headers_.end() || !util::equals_ignore_case(it->first, name)) {
    return nullptr;
  }
  return &it->second;
}

void HeaderMap::put(std::string_view name, std::string_view value) {
  const auto it =
      std::lower_bound(headers_.begin(), headers_.end(), name, name_less);
  if (it != headers_.end() && util::equals_ignore_case(it->first, name)) {
    it->second.assign(value);
    return;
  }
  headers_.emplace(it, util::to_lower(name), std::string(value));
}

util::Result<HeaderMap> HeaderMap::parse(std::string_view lines) {
  using R = util::Result<HeaderMap>;
  HeaderMap map;
  map.headers_.reserve(
      static_cast<std::size_t>(std::count(lines.begin(), lines.end(), '\n')) +
      1);
  std::optional<std::string_view> content_length;
  while (!lines.empty()) {
    const std::size_t lf = lines.find('\n');
    const std::string_view line = util::trim(lines.substr(0, lf));
    lines = lf == std::string_view::npos ? std::string_view()
                                         : lines.substr(lf + 1);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      return R::failure("http.bad_header", std::string(line));
    }
    const std::string_view name = util::trim(line.substr(0, colon));
    const std::string_view value = util::trim(line.substr(colon + 1));
    // Duplicate Content-Length headers with CONFLICTING values are the
    // request-smuggling primitive (RFC 9112 §6.3): two length framings for
    // one message body. Reject them; repeats of the identical value are
    // tolerated (seen from naive proxies). Other duplicate headers keep the
    // historical last-wins behaviour.
    if (util::equals_ignore_case(name, kContentLength)) {
      if (content_length && *content_length != value) {
        return R::failure("http.duplicate_content_length",
                          std::string(*content_length) + " vs " +
                              std::string(value));
      }
      content_length = value;
    }
    map.headers_.emplace_back(util::to_lower(name), std::string(value));
  }
  // One sort instead of an in-place insert per line, which a hostile head
  // of tens of thousands of names would make quadratic. Stable, so of equal
  // names the last to arrive ends its run, and it is the one kept.
  std::vector<Entry>& headers = map.headers_;
  std::stable_sort(headers.begin(), headers.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.first < b.first;
                   });
  auto kept = headers.begin();
  for (auto it = headers.begin(); it != headers.end(); ++it) {
    const auto next = it + 1;
    if (next != headers.end() && next->first == it->first) continue;
    if (kept != it) *kept = std::move(*it);
    ++kept;
  }
  headers.erase(kept, headers.end());
  return map;
}

std::optional<std::size_t> parse_content_length(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::size_t length = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    if (length > (std::numeric_limits<std::size_t>::max() - 9) / 10) {
      return std::nullopt;
    }
    length = length * 10 + static_cast<std::size_t>(c - '0');
  }
  return length;
}

const char* default_reason(int status_code) {
  switch (status_code) {
    case 200:
      return "OK";
    case 301:
      return "Moved Permanently";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

util::Bytes HttpRequest::serialize() const {
  Bytes out;
  write_message(out, method, path, "HTTP/1.1", headers, body);
  return out;
}

util::Result<HttpRequest> HttpRequest::parse(util::BytesView wire) {
  using R = Result<HttpRequest>;
  const auto parts = split_message(wire);
  if (!parts) return R::failure("http.no_header_terminator");
  // Exactly two spaces: method, path (possibly empty) and version.
  const std::string_view request_line = util::trim(parts->start_line);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos
                              ? std::string_view::npos
                              : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos) {
    return R::failure("http.bad_request_line",
                      std::string(parts->start_line));
  }
  const std::string_view version = request_line.substr(sp2 + 1);
  if (!util::starts_with(version, "HTTP/1.")) {
    return R::failure("http.bad_version", std::string(version));
  }
  HttpRequest req;
  req.method.assign(request_line.substr(0, sp1));
  req.path.assign(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  auto headers = HeaderMap::parse(parts->header_lines);
  if (!headers.ok()) {
    return R::failure(headers.error().code, headers.error().detail);
  }
  req.headers = std::move(headers).take();
  req.body.assign(parts->body.begin(), parts->body.end());
  return req;
}

util::Bytes HttpResponse::serialize() const {
  Bytes out;
  serialize_to(out);
  return out;
}

void HttpResponse::serialize_to(util::Bytes& out) const {
  char digits[16];
  const auto [end, ec] =
      std::to_chars(digits, digits + sizeof(digits), status_code);
  const std::string_view code(digits, static_cast<std::size_t>(end - digits));
  write_message(out, "HTTP/1.1", code, reason, headers, body);
}

util::Result<HttpResponse> HttpResponse::parse(const util::Bytes& wire) {
  using R = Result<HttpResponse>;
  const auto parts = split_message(wire);
  if (!parts) return R::failure("http.no_header_terminator");
  const std::string_view status_line = util::trim(parts->start_line);
  if (!util::starts_with(status_line, "HTTP/1.")) {
    return R::failure("http.bad_version", std::string(status_line));
  }
  const std::size_t sp1 = status_line.find(' ');
  if (sp1 == std::string_view::npos) return R::failure("http.bad_status_line");
  const std::size_t sp2 = status_line.find(' ', sp1 + 1);
  const std::string_view code_text = status_line.substr(
      sp1 + 1,
      sp2 == std::string_view::npos ? std::string_view::npos : sp2 - sp1 - 1);
  // An empty or oversized code token must be rejected, not folded to status
  // 0 — "HTTP/1.1  OK" used to parse as status 0, which success() treated
  // as a non-HTTP-error transport result.
  if (code_text.empty() || code_text.size() > 3) {
    return R::failure("http.bad_status_code", std::string(code_text));
  }
  HttpResponse resp;
  resp.status_code = 0;
  for (char c : code_text) {
    if (c < '0' || c > '9') {
      return R::failure("http.bad_status_code", std::string(code_text));
    }
    resp.status_code = resp.status_code * 10 + (c - '0');
  }
  resp.reason.assign(sp2 == std::string_view::npos
                         ? std::string_view()
                         : status_line.substr(sp2 + 1));
  auto headers = HeaderMap::parse(parts->header_lines);
  if (!headers.ok()) {
    return R::failure(headers.error().code, headers.error().detail);
  }
  resp.headers = std::move(headers).take();
  resp.body.assign(parts->body.begin(), parts->body.end());
  if (const std::string* declared = resp.headers.find(kContentLength)) {
    const auto length = parse_content_length(*declared);
    if (!length) return R::failure("http.bad_content_length", *declared);
    if (*length != resp.body.size()) {
      return R::failure("http.content_length_mismatch",
                        *declared + " vs " + std::to_string(resp.body.size()));
    }
  }
  return resp;
}

HttpResponse HttpResponse::make(int status, std::string reason,
                                util::Bytes body,
                                std::string_view content_type) {
  HttpResponse resp;
  resp.status_code = status;
  resp.reason = std::move(reason);
  resp.body = std::move(body);
  if (!content_type.empty()) resp.headers.set("content-type", content_type);
  return resp;
}

}  // namespace mustaple::net
