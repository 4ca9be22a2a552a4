// End-to-end tests for the real-socket serving mode (net/socket_server.hpp):
// a SocketServer fronting the pre-generated OcspResponder, CrlServer, and
// WebServer over genuine loopback TCP. Covers the ISSUE acceptance
// criterion — a percent-encoded RFC 6960 A.1 GET round-trips over a real
// socket — plus POSTs, pipelined keep-alive, the 431/408/400 protections,
// multi-listener port lookup, exclusive fixed-port binding and restart, the
// wire-level ResponseCache, and (fork-based, compiled out under TSan) the
// flight recorder dumping a postmortem while a server is live. Linux-only
// by nature; the file still compiles elsewhere.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "ca/crl_server.hpp"
#include "ca/responder.hpp"
#include "net/event_loop.hpp"
#include "net/network.hpp"
#include "net/socket_server.hpp"
#include "obs/flight.hpp"
#include "ocsp/request.hpp"
#include "ocsp/response.hpp"
#include "util/base64.hpp"
#include "util/strings.hpp"
#include "webserver/webserver.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

// The fork-in-a-threaded-gtest-binary crash test is meaningless under
// ThreadSanitizer (TSan intercepts the signal and the child is not
// async-signal-safe by TSan's rules), so it is compiled out there.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MUSTAPLE_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define MUSTAPLE_TSAN 1
#endif
#if !defined(MUSTAPLE_TSAN)
#define MUSTAPLE_TSAN 0
#endif

namespace mustaple::net {
namespace {

const util::SimTime kNow = util::make_time(2018, 5, 1, 12);

// RFC 6960 A.1: clients URL-encode the base64 request into the GET path.
std::string percent_encode_base64(const std::string& text) {
  std::string out;
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

// A tiny PKI shared by the socket tests: one CA, a pre-generated responder,
// a CRL server, and one must-staple leaf.
struct Pki {
  util::Rng rng{2024};
  ca::CertificateAuthority authority{"SockCA", kNow - util::Duration::days(2000),
                                     rng};
  ca::OcspResponder responder{authority, ca::ResponderBehavior{},
                              "ocsp.sock.example", rng};
  ca::CrlServer crl_server{authority, "crl.sock.example"};
  x509::Certificate leaf;

  Pki() {
    ca::LeafRequest request;
    request.domain = "www.sock.example";
    request.not_before = kNow - util::Duration::days(30);
    request.lifetime = util::Duration::days(365);
    request.must_staple = true;
    request.ocsp_urls = {"http://ocsp.sock.example/"};
    leaf = authority.issue(request, rng);
  }

  ocsp::CertId cert_id() const {
    return ocsp::CertId::for_certificate(leaf, authority.intermediate_cert());
  }

  WireHandler ocsp_handler() {
    return responder.wire_handler([] { return kNow; });
  }
};

#if defined(__linux__)

// Blocking loopback client socket with send/recv timeouts.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct timeval tv {5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

void send_all(int fd, const std::string& wire) {
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

// One request with Connection: close, read to EOF, return raw response.
std::string fetch_raw(std::uint16_t port, const std::string& wire) {
  const int fd = connect_to(port);
  send_all(fd, wire);
  std::string response;
  char buf[8192];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string fetch(std::uint16_t port, const std::string& path) {
  return fetch_raw(port, "GET " + path +
                             " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                             "Connection: close\r\n\r\n");
}

// Splits a raw byte stream into complete HTTP responses using the
// Content-Length framing the server always emits.
std::vector<std::string> split_responses(const std::string& stream) {
  std::vector<std::string> out;
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t head_end = stream.find("\r\n\r\n", at);
    if (head_end == std::string::npos) break;
    std::size_t body_len = 0;
    const std::string head =
        util::to_lower(stream.substr(at, head_end - at));
    const std::size_t cl = head.find("content-length:");
    if (cl != std::string::npos) {
      std::size_t i = cl + std::string("content-length:").size();
      while (i < head.size() && head[i] == ' ') ++i;
      while (i < head.size() && head[i] >= '0' && head[i] <= '9') {
        body_len = body_len * 10 + static_cast<std::size_t>(head[i] - '0');
        ++i;
      }
    }
    const std::size_t total = head_end - at + 4 + body_len;
    if (at + total > stream.size()) break;
    out.push_back(stream.substr(at, total));
    at += total;
  }
  return out;
}

std::string body_of(const std::string& response) {
  const std::size_t head_end = response.find("\r\n\r\n");
  return head_end == std::string::npos ? std::string()
                                       : response.substr(head_end + 4);
}

// ------------------------------------------------------------ round trips --

TEST(SocketServer, PercentEncodedGetRoundTripsOverARealSocket) {
  // THE acceptance criterion: an RFC 6960 A.1 GET with percent-encoded
  // base64 path, over genuine TCP, answered with a verifiable OCSP response.
  Pki pki;
  SocketServer server;
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  ASSERT_TRUE(server.start().ok());

  const auto request = ocsp::OcspRequest::single(pki.cert_id());
  const std::string path =
      "/" + percent_encode_base64(util::base64_encode(request.encode_der()));
  ASSERT_NE(path.find('%'), std::string::npos)
      << "corpus must actually exercise percent-decoding: " << path;

  const std::string raw = fetch(server.port(std::size_t{0}), path);
  ASSERT_EQ(raw.rfind("HTTP/1.1 200", 0), 0u) << raw;
  EXPECT_NE(raw.find("application/ocsp-response"), std::string::npos);

  const std::string body = body_of(raw);
  const auto parsed =
      ocsp::OcspResponse::parse(util::Bytes(body.begin(), body.end()));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value().successful());
  ASSERT_EQ(parsed.value().responses().size(), 1u);
  EXPECT_EQ(parsed.value().responses()[0].cert_id, pki.cert_id());
  server.stop();
}

TEST(SocketServer, OcspPostRoundTrips) {
  Pki pki;
  SocketServer server;
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  ASSERT_TRUE(server.start().ok());

  const util::Bytes der = ocsp::OcspRequest::single(pki.cert_id()).encode_der();
  std::string wire =
      "POST / HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Type: application/ocsp-request\r\n"
      "Content-Length: " + std::to_string(der.size()) +
      "\r\nConnection: close\r\n\r\n";
  wire.append(der.begin(), der.end());

  const std::string raw = fetch_raw(server.port(std::size_t{0}), wire);
  ASSERT_EQ(raw.rfind("HTTP/1.1 200", 0), 0u) << raw;
  const std::string body = body_of(raw);
  const auto parsed =
      ocsp::OcspResponse::parse(util::Bytes(body.begin(), body.end()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().successful());
  server.stop();
}

TEST(SocketServer, PipelinedKeepAliveServesEveryRequest) {
  Pki pki;
  SocketServer server;
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  ASSERT_TRUE(server.start().ok());

  const std::string path =
      "/" + percent_encode_base64(util::base64_encode(
                ocsp::OcspRequest::single(pki.cert_id()).encode_der()));
  const std::string one =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  const std::string last =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Connection: close\r\n\r\n";

  // Five requests in one write; the last one closes, so read-to-EOF
  // collects exactly five framed responses.
  const std::string raw = fetch_raw(server.port(std::size_t{0}),
                                    one + one + one + one + last);
  const auto responses = split_responses(raw);
  ASSERT_EQ(responses.size(), 5u) << raw;
  for (const auto& response : responses) {
    EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u);
  }
  EXPECT_GE(server.stats().requests, 5u);
  server.stop();
}

TEST(SocketServer, ThreeListenersServeTheirOwnHandlers) {
  Pki pki;
  net::EventLoop loop(kNow - util::Duration::days(1));
  net::Network network(loop, 7);
  pki.responder.install(network);
  webserver::WebServerConfig config;
  config.software = webserver::Software::kIdeal;
  webserver::WebServer web("www.sock.example",
                           pki.authority.chain_for(pki.leaf), config, network);
  loop.run_until(kNow);
  web.start(kNow);

  SocketServer server;
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  server.add_listener("crl", 0,
                      pki.crl_server.wire_handler([] { return kNow; }));
  server.add_listener("web", 0, web.wire_handler([] { return kNow; }));
  ASSERT_TRUE(server.start().ok());
  EXPECT_EQ(server.listener_count(), 3u);
  EXPECT_EQ(server.port("ocsp"), server.port(std::size_t{0}));
  EXPECT_NE(server.port("crl"), 0);
  EXPECT_NE(server.port("web"), server.port("crl"));

  const std::string crl = fetch(server.port("crl"), "/ca.crl");
  EXPECT_EQ(crl.rfind("HTTP/1.1 200", 0), 0u) << crl;
  EXPECT_NE(crl.find("application/pkix-crl"), std::string::npos);

  const std::string staple = fetch(server.port("web"), "/staple");
  ASSERT_EQ(staple.rfind("HTTP/1.1 200", 0), 0u) << staple;
  const std::string der = body_of(staple);
  const auto parsed =
      ocsp::OcspResponse::parse(util::Bytes(der.begin(), der.end()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().successful());

  const std::string status = fetch(server.port("web"), "/");
  EXPECT_NE(status.find("www.sock.example"), std::string::npos);
  server.stop();
}

// ------------------------------------------------------------ protections --

TEST(SocketServer, OversizedRequestIsRejectedWith431) {
  Pki pki;
  SocketServer::Options options;
  options.max_request_bytes = 512;
  SocketServer server(options);
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  ASSERT_TRUE(server.start().ok());

  const std::string raw = fetch_raw(
      server.port(std::size_t{0}),
      "GET / HTTP/1.1\r\nx-padding: " + std::string(2048, 'a') + "\r\n\r\n");
  EXPECT_EQ(raw.rfind("HTTP/1.1 431", 0), 0u) << raw;
  EXPECT_EQ(server.stats().responses_431, 1u);

  // A small parseable head declaring a huge body must 431 too.
  const std::string big_body = fetch_raw(
      server.port(std::size_t{0}),
      "POST / HTTP/1.1\r\nHost: h\r\nContent-Length: 100000\r\n\r\n" +
          std::string(2048, 'b'));
  EXPECT_EQ(big_body.rfind("HTTP/1.1 431", 0), 0u) << big_body;
  server.stop();
}

TEST(SocketServer, SlowLorisIsAnswered408OnDeadline) {
  Pki pki;
  SocketServer::Options options;
  options.read_timeout_ms = 100;
  SocketServer server(options);
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  ASSERT_TRUE(server.start().ok());

  // An incomplete head that then stalls: the deadline sweep must answer
  // 408 rather than pin the connection forever.
  const std::string raw = fetch_raw(server.port(std::size_t{0}),
                                    "GET / HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  EXPECT_EQ(raw.rfind("HTTP/1.1 408", 0), 0u) << raw;
  EXPECT_EQ(server.stats().responses_408, 1u);
  server.stop();
}

TEST(SocketServer, ConflictingContentLengthIsA400OverTheWire) {
  Pki pki;
  SocketServer server;
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  ASSERT_TRUE(server.start().ok());
  const std::string raw = fetch_raw(
      server.port(std::size_t{0}),
      "POST / HTTP/1.1\r\nHost: h\r\n"
      "Content-Length: 4\r\nContent-Length: 5\r\n\r\nabcde");
  EXPECT_EQ(raw.rfind("HTTP/1.1 400", 0), 0u) << raw;
  server.stop();
}

TEST(SocketServer, MalformedRequestLineIsA400) {
  Pki pki;
  SocketServer server;
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  ASSERT_TRUE(server.start().ok());
  const std::string raw =
      fetch_raw(server.port(std::size_t{0}), "NOT-EVEN-HTTP\r\n\r\n");
  EXPECT_EQ(raw.rfind("HTTP/1.1 400", 0), 0u) << raw;
  server.stop();
}

// -------------------------------------------------------------- lifecycle --

TEST(SocketServer, StartWithoutListenersFails) {
  SocketServer server;
  const auto status = server.start();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "serve.no_listeners");
}

TEST(SocketServer, StopIsIdempotentAndServerRestartable) {
  Pki pki;
  SocketServer server;
  server.add_listener("ocsp", 0, pki.ocsp_handler());
  ASSERT_TRUE(server.start().ok());
  EXPECT_TRUE(server.running());
  server.stop();
  server.stop();
  EXPECT_FALSE(server.running());
  // The fds really closed: the same object can start again.
  ASSERT_TRUE(server.start().ok());
  const std::string raw = fetch(server.port(std::size_t{0}), "/");
  EXPECT_EQ(raw.rfind("HTTP/1.1", 0), 0u);
  server.stop();
}

TEST(SocketServer, HeldFixedPortFailsWithServeBind) {
  Pki pki;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    SocketServer::Options options;
    options.worker_threads = workers;
    SocketServer first(options);
    first.add_listener("ocsp", 0, pki.ocsp_handler());
    ASSERT_TRUE(first.start().ok());
    const std::uint16_t held = first.port(std::size_t{0});

    // Same user, same options: SO_REUSEPORT alone would let the second
    // server join the first one's group and take a share of its traffic.
    SocketServer second(options);
    second.add_listener("ocsp", held, pki.ocsp_handler());
    const util::Status status = second.start();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, "serve.bind");
    EXPECT_FALSE(second.running());
    EXPECT_EQ(second.port(std::size_t{0}), 0);

    // The holder still answers every connection on its port.
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(fetch(held, "/").rfind("HTTP/1.1", 0), 0u);
    }
    EXPECT_EQ(first.stats().requests, 4u);
    first.stop();
  }
}

TEST(SocketServer, RestartsOnTheSameFixedPortAfterServing) {
  Pki pki;
  std::uint16_t fixed = 0;
  {
    SocketServer first;
    first.add_listener("ocsp", 0, pki.ocsp_handler());
    ASSERT_TRUE(first.start().ok());
    fixed = first.port(std::size_t{0});
    // The server closes first after a Connection: close response, so its
    // end of the connection lingers in TIME_WAIT on the fixed port.
    EXPECT_EQ(fetch(fixed, "/").rfind("HTTP/1.1", 0), 0u);
    first.stop();
  }
  SocketServer second;
  second.add_listener("ocsp", fixed, pki.ocsp_handler());
  const util::Status status = second.start();
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  EXPECT_EQ(second.port(std::size_t{0}), fixed);
  EXPECT_EQ(fetch(fixed, "/").rfind("HTTP/1.1", 0), 0u);
  second.stop();
}

// ----------------------------------------------------------- ResponseCache --

TEST(ResponseCache, WrapServesIdenticalBytesAndCountsHits) {
  Pki pki;
  std::atomic<int> calls{0};
  WireHandler inner = pki.ocsp_handler();
  WireHandler counted = [&calls, inner](const HttpRequest& request) {
    ++calls;
    return inner(request);
  };
  ResponseCache cache(4, 64);
  WireHandler wrapped = cache.wrap(std::move(counted));

  HttpRequest request;
  request.method = "GET";
  request.path = "/" + percent_encode_base64(util::base64_encode(
                           ocsp::OcspRequest::single(pki.cert_id())
                               .encode_der()));
  const HttpResponse first = wrapped(request);
  const HttpResponse second = wrapped(request);
  EXPECT_EQ(calls.load(), 1) << "second call must be served from the cache";
  EXPECT_EQ(first.serialize(), second.serialize());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // A different request is a miss, not a false hit.
  HttpRequest other = request;
  other.method = "POST";
  other.path = "/";
  other.body = ocsp::OcspRequest::single(pki.cert_id()).encode_der();
  wrapped(other);
  EXPECT_EQ(calls.load(), 2);
}

TEST(ResponseCache, EpochChangeInvalidates) {
  std::atomic<int> calls{0};
  std::atomic<std::uint64_t> epoch{1};
  ResponseCache cache(4, 64);
  WireHandler wrapped = cache.wrap(
      [&calls](const HttpRequest&) {
        ++calls;
        return HttpResponse::make(200, "OK", util::bytes_of("x"),
                                  "text/plain");
      },
      [&epoch] { return epoch.load(); });

  HttpRequest request;
  request.method = "GET";
  request.path = "/cached";
  wrapped(request);
  wrapped(request);
  EXPECT_EQ(calls.load(), 1);
  epoch = 2;  // e.g. the responder rolled a pre-generation cycle
  wrapped(request);
  EXPECT_EQ(calls.load(), 2);
}

// ------------------------------------------------- crash-safety, serving --

#if !MUSTAPLE_TSAN

// A forked child runs a live SocketServer AND an armed flight recorder,
// then dies on SIGSEGV: the postmortem artifacts must land even with
// server worker threads running — the crash path cannot deadlock on them.
TEST(SocketServer, FlightRecorderDumpsPostmortemWhileServing) {
  const std::string dir = ::testing::TempDir() + "socket_crash";
  ASSERT_EQ(::system(("rm -rf " + dir + " && mkdir -p " + dir).c_str()), 0);

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Pki pki;
    SocketServer server;
    server.add_listener("ocsp", 0, pki.ocsp_handler());
    if (!server.start().ok()) _exit(6);
    obs::FlightRecorder recorder(32);
    recorder.note_phase("serving:started");
    if (!recorder.install(dir)) _exit(7);
    ::raise(SIGSEGV);
    _exit(8);  // unreachable: the handler re-raises with SIG_DFL semantics
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited " << WEXITSTATUS(status);
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::ifstream in(dir + "/postmortem.txt");
  std::ostringstream slurped;
  slurped << in.rdbuf();
  const std::string text = slurped.str();
  EXPECT_NE(text.find("SIGSEGV"), std::string::npos) << text;
  EXPECT_NE(text.find("serving:started"), std::string::npos);
}

#endif  // !MUSTAPLE_TSAN

#endif  // defined(__linux__)

}  // namespace
}  // namespace mustaple::net
