// Tests for the introspection server (obs/introspect.hpp). The routing
// core (handle()) is exercised socket-free on every platform; on Linux the
// server is additionally started on an ephemeral loopback port and scraped
// through real TCP connections — the routes, Connection: close semantics
// (one response per connection, even to pipelined requests), sequential
// connections, and the 503 readiness flip. The 400/408/431 protections and
// the bind/restart lifecycle belong to net::SocketServer and are tested in
// socket_server_test.cpp. Compiles and passes under MUSTAPLE_OBS_OFF (plain
// classes only).
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "obs/health.hpp"
#include "obs/introspect.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "util/alloc.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>
#endif

namespace mustaple::obs {
namespace {

net::HttpRequest get(const std::string& path) {
  net::HttpRequest request;
  request.method = "GET";
  request.path = path;
  return request;
}

TEST(IntrospectHandle, RoutesWithoutASocket) {
  Registry registry;
  registry.counter("mustaple_test_total").inc(7);
  IntrospectionServer server;
  server.add_registry("test", &registry);

  const net::HttpResponse health = server.handle(get("/healthz"));
  EXPECT_EQ(health.status_code, 200);
  EXPECT_EQ(util::text_of(health.body), "ok\n");

  const net::HttpResponse metrics = server.handle(get("/metrics"));
  EXPECT_EQ(metrics.status_code, 200);
  EXPECT_NE(util::text_of(metrics.body).find("mustaple_test_total 7"),
            std::string::npos);

  const net::HttpResponse statusz = server.handle(get("/statusz"));
  EXPECT_EQ(statusz.status_code, 200);
  EXPECT_NE(util::text_of(statusz.body).find("mustaple statusz"),
            std::string::npos);

  EXPECT_EQ(server.handle(get("/")).status_code, 200);
  EXPECT_EQ(server.handle(get("/nope")).status_code, 404);

  net::HttpRequest post = get("/metrics");
  post.method = "POST";
  EXPECT_EQ(server.handle(post).status_code, 405);
}

TEST(IntrospectHandle, StatuszIncludesProviderProfilerAndAllocSections) {
  // The allocations section lists registered counters; make sure one exists.
  util::alloc_counter("test.introspect_statusz").record_alloc(64);
  Profiler profiler;
  {
    ProfScope scope("statusz-phase", profiler);
  }
  IntrospectionServer server;
  server.set_profiler(&profiler);
  server.set_status_provider(
      [] { return std::string("campaign: 3/7 steps\n"); });
  const std::string body =
      util::text_of(server.handle(get("/statusz")).body);
  EXPECT_NE(body.find("campaign: 3/7 steps"), std::string::npos);
  EXPECT_NE(body.find("statusz-phase"), std::string::npos);
  EXPECT_NE(body.find("allocations"), std::string::npos);
}

TEST(IntrospectHandle, HealthzReflectsAttachedMonitor) {
  std::atomic<bool> healthy{true};
  HealthMonitor health;
  health.add_check("test.flip", HealthSeverity::kCritical, [&healthy] {
    HealthCheckResult result;
    result.ok = healthy.load();
    if (!result.ok) result.detail = "flipped";
    return result;
  });
  health.evaluate_checks();

  IntrospectionServer server;
  server.set_health(&health);

  const net::HttpResponse ok = server.handle(get("/healthz"));
  EXPECT_EQ(ok.status_code, 200);
  const std::string ok_body = util::text_of(ok.body);
  EXPECT_NE(ok_body.find("mustaple-health/1"), std::string::npos);
  EXPECT_NE(ok_body.find("\"status\":\"ok\""), std::string::npos);

  healthy = false;
  health.evaluate_checks();
  const net::HttpResponse sick = server.handle(get("/healthz"));
  EXPECT_EQ(sick.status_code, 503);
  EXPECT_NE(util::text_of(sick.body).find("\"status\":\"critical\""),
            std::string::npos);

  // /statusz grows a health section when a monitor is attached.
  const std::string statusz = util::text_of(server.handle(get("/statusz")).body);
  EXPECT_NE(statusz.find("health"), std::string::npos);
  EXPECT_NE(statusz.find("test.flip"), std::string::npos);
}

#if defined(__linux__)

// Blocking loopback client: send `wire`, read until the server closes (it
// always closes after responding), return the raw response text. When
// given, `eof` reports whether the read ended in a clean EOF rather than an
// error or the 5 s receive timeout.
std::string fetch_raw(std::uint16_t port, const std::string& wire,
                      bool* eof = nullptr) {
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
  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::write(fd, wire.data() + sent, wire.size() - sent);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (eof != nullptr) *eof = n == 0;
      break;
    }
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

TEST(IntrospectServer, ServesOverARealLoopbackSocket) {
  Registry registry;
  registry.counter("mustaple_live_total").inc(3);
  registry.gauge("mustaple_live_gauge").set(1.5);
  IntrospectionServer server;  // port 0: kernel-assigned
  server.add_registry("live", &registry);
  server.set_status_provider([] { return std::string("live provider\n"); });

  ASSERT_TRUE(server.start().ok());
  ASSERT_TRUE(server.running());
  const std::uint16_t port = server.port();
  ASSERT_NE(port, 0);

  const std::string health = fetch(port, "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(health.find("connection: close"), std::string::npos);
  EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos);

  const std::string metrics = fetch(port, "/metrics");
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("mustaple_live_total 3"), std::string::npos);
  EXPECT_NE(metrics.find("mustaple_live_gauge 1.5"), std::string::npos);

  const std::string statusz = fetch(port, "/statusz");
  EXPECT_NE(statusz.find("mustaple statusz"), std::string::npos);
  EXPECT_NE(statusz.find("live provider"), std::string::npos);

  EXPECT_EQ(fetch(port, "/missing").rfind("HTTP/1.1 404", 0), 0u);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(IntrospectServer, HandlesSequentialConnectionsAndSeesFreshValues) {
  Registry registry;
  IntrospectionServer server;
  server.add_registry("seq", &registry);
  ASSERT_TRUE(server.start().ok());
  const std::uint16_t port = server.port();

  for (int i = 1; i <= 3; ++i) {
    registry.counter("mustaple_seq_total").inc();
    const std::string body = fetch(port, "/metrics");
    EXPECT_NE(body.find("mustaple_seq_total " + std::to_string(i)),
              std::string::npos)
        << body;
  }
  server.stop();
}

TEST(IntrospectServer, HealthzTurns503OverTheWireOnCriticalBreach) {
  std::atomic<bool> healthy{true};
  HealthMonitor health;
  health.add_check("live.flip", HealthSeverity::kCritical, [&healthy] {
    HealthCheckResult result;
    result.ok = healthy.load();
    return result;
  });
  health.evaluate_checks();

  IntrospectionServer server;
  server.set_health(&health);
  ASSERT_TRUE(server.start().ok());
  const std::uint16_t port = server.port();

  const std::string ok = fetch(port, "/healthz");
  EXPECT_EQ(ok.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(ok.find("application/json"), std::string::npos);
  EXPECT_NE(ok.find("mustaple-health/1"), std::string::npos);

  healthy = false;
  health.evaluate_checks();
  const std::string sick = fetch(port, "/healthz");
  EXPECT_EQ(sick.rfind("HTTP/1.1 503", 0), 0u) << sick;
  EXPECT_NE(sick.find("\"status\":\"critical\""), std::string::npos);
  server.stop();
}

TEST(IntrospectServer, PipelinedRequestsGetOneResponseThenClose) {
  IntrospectionServer server;
  ASSERT_TRUE(server.start().ok());
  // No Connection header, so only the server's keep-alive setting decides:
  // the port answers the first request, closes, and drops the second.
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  bool eof = false;
  const std::string raw = fetch_raw(server.port(), request + request, &eof);
  EXPECT_TRUE(eof);
  EXPECT_EQ(raw.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << raw;
  EXPECT_NE(raw.find("connection: close\r\n"), std::string::npos) << raw;
  // Exactly one response: it ends with the body, and no second status line.
  EXPECT_EQ(raw.find("HTTP/1.1", 1), std::string::npos) << raw;
  const std::string tail = "\r\n\r\nok\n";
  ASSERT_GE(raw.size(), tail.size());
  EXPECT_EQ(raw.substr(raw.size() - tail.size()), tail) << raw;
  server.stop();
}

#endif  // defined(__linux__)

}  // namespace
}  // namespace mustaple::obs
