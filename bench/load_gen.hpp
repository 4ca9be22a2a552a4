// Loopback OCSP client helpers for the serving benchmark
// (mustaple_bench/serve.cpp and replay.cpp): the percent-encoded RFC 6960
// GET path real clients send, and a TCP_NODELAY connection to a
// net::SocketServer listening on 127.0.0.1.
#pragma once

#include <cstdint>
#include <string>

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace mustaple::bench {

namespace loadgen_detail {

/// RFC 6960 A.1 says clients URL-encode the base64 path: escape the three
/// base64 characters that are reserved in a URL. This is what real GET
/// clients send, so the server-side percent-decode runs on the hot path.
inline std::string percent_encode_base64(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '+') {
      out += "%2B";
    } else if (c == '/') {
      out += "%2F";
    } else if (c == '=') {
      out += "%3D";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

#if defined(__linux__)
inline int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}
#endif

}  // namespace loadgen_detail

}  // namespace mustaple::bench
