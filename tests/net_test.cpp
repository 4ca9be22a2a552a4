// Network-simulator tests: URLs, HTTP wire format, DNS (incl. CNAME
// chains), the event loop, fault rules, and end-to-end request routing with
// injected failures (the §5.2 failure taxonomy).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "net/dns.hpp"
#include "net/event_loop.hpp"
#include "net/fault.hpp"
#include "net/http.hpp"
#include "net/network.hpp"
#include "net/url.hpp"
#include "net/vantage.hpp"
#include "obs/obs.hpp"

namespace mustaple::net {
namespace {

using util::Bytes;
using util::Duration;
using util::SimTime;

const SimTime kStart = util::make_time(2018, 4, 25);

// ------------------------------------------------------------------- URL --

TEST(Url, ParsesPlainHttp) {
  auto url = parse_url("http://ocsp.example.com/");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().scheme, "http");
  EXPECT_EQ(url.value().host, "ocsp.example.com");
  EXPECT_EQ(url.value().port, 80);
  EXPECT_EQ(url.value().path, "/");
}

TEST(Url, ParsesHttpsDefaultPort) {
  auto url = parse_url("https://secure.example/status");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().port, 443);
  EXPECT_EQ(url.value().path, "/status");
}

TEST(Url, ParsesExplicitPort) {
  // The paper's http://ocsp.pki.wayport.net:2560 case.
  auto url = parse_url("http://ocsp.pki.wayport.net:2560");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().port, 2560);
  EXPECT_EQ(url.value().path, "/");
}

TEST(Url, LowercasesHost) {
  auto url = parse_url("http://OCSP.Example.COM/X");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url.value().host, "ocsp.example.com");
  EXPECT_EQ(url.value().path, "/X");  // path case preserved
}

TEST(Url, ToStringOmitsDefaultPorts) {
  EXPECT_EQ(parse_url("http://h/x").value().to_string(), "http://h/x");
  EXPECT_EQ(parse_url("http://h:8080/x").value().to_string(),
            "http://h:8080/x");
}

TEST(Url, RejectsMalformed) {
  EXPECT_FALSE(parse_url("ftp://x/").ok());
  EXPECT_FALSE(parse_url("http://").ok());
  EXPECT_FALSE(parse_url("http://host:abc/").ok());
  EXPECT_FALSE(parse_url("http://host:99999/").ok());
  EXPECT_FALSE(parse_url("http://host:/").ok());
  EXPECT_FALSE(parse_url("no-scheme.example").ok());
}

TEST(Url, RejectsPortZero) {
  // Port 0 is "pick one for me" at the sockets API — it never identifies a
  // remote service, so a URL carrying it is malformed, not default-port.
  const auto url = parse_url("http://host:0/");
  ASSERT_FALSE(url.ok());
  EXPECT_EQ(url.error().code, "url.bad_port");
  EXPECT_FALSE(parse_url("http://host:0").ok());
  EXPECT_FALSE(parse_url("https://host:00/x").ok());
}

// ------------------------------------------------------------------ HTTP --

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/ocsp";
  req.headers.set("Host", "ocsp.example");
  req.headers.set("Content-Type", "application/ocsp-request");
  req.body = {0x30, 0x03, 0x0a, 0x01, 0x00};
  auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().method, "POST");
  EXPECT_EQ(parsed.value().path, "/ocsp");
  EXPECT_EQ(parsed.value().host(), "ocsp.example");
  EXPECT_EQ(parsed.value().headers.get("content-type"),
            "application/ocsp-request");
  EXPECT_EQ(parsed.value().body, req.body);
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp = HttpResponse::make(404, "Not Found",
                                         util::bytes_of("nope"), "text/plain");
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().status_code, 404);
  EXPECT_EQ(parsed.value().reason, "Not Found");
  EXPECT_EQ(util::text_of(parsed.value().body), "nope");
  EXPECT_FALSE(parsed.value().ok());
}

TEST(Http, HeadersCaseInsensitive) {
  HeaderMap headers;
  headers.set("Content-Length", "5");
  EXPECT_TRUE(headers.contains("content-length"));
  EXPECT_TRUE(headers.contains("CONTENT-LENGTH"));
  EXPECT_EQ(headers.get("Content-length"), "5");
  EXPECT_EQ(headers.get("missing"), "");
}

TEST(Http, ParseRejectsMalformed) {
  EXPECT_FALSE(HttpRequest::parse(util::bytes_of("garbage")).ok());
  EXPECT_FALSE(HttpRequest::parse(util::bytes_of("GET /\r\n\r\n")).ok());
  EXPECT_FALSE(
      HttpResponse::parse(util::bytes_of("NOTHTTP 200 OK\r\n\r\n")).ok());
  EXPECT_FALSE(
      HttpResponse::parse(util::bytes_of("HTTP/1.1 abc OK\r\n\r\n")).ok());
}

TEST(Http, ConflictingDuplicateContentLengthIsRejected) {
  // RFC 7230 §3.3.2: multiple differing Content-Length values are a
  // request-smuggling vector; the parse must refuse to pick one.
  const auto conflicting = HttpRequest::parse(util::bytes_of(
      "POST / HTTP/1.1\r\nHost: h\r\n"
      "Content-Length: 4\r\nContent-Length: 5\r\n\r\nabcde"));
  ASSERT_FALSE(conflicting.ok());
  EXPECT_EQ(conflicting.error().code, "http.duplicate_content_length");
}

TEST(Http, IdenticalRepeatedContentLengthIsTolerated) {
  // Same value repeated is unambiguous; RFC 7230 lets a parser accept it.
  const auto repeated = HttpRequest::parse(util::bytes_of(
      "POST / HTTP/1.1\r\nHost: h\r\n"
      "Content-Length: 4\r\nContent-Length: 4\r\n\r\nabcd"));
  ASSERT_TRUE(repeated.ok()) << repeated.error().to_string();
  EXPECT_EQ(util::text_of(repeated.value().body), "abcd");
}

TEST(Http, BinaryBodySurvives) {
  HttpResponse resp;
  resp.body.resize(256);
  for (int i = 0; i < 256; ++i) resp.body[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(i);
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().body, resp.body);
}

TEST(Http, SerializeGoldenBytes) {
  // Wire bytes are part of the contract: headers go out lowercase in
  // ascending name order whatever case and order they were set in, the
  // last set wins, and Content-Length is appended after them unless the
  // caller set one.
  HttpRequest post;
  post.method = "POST";
  post.path = "/ocsp";
  post.headers.set("X-Trace", "7");
  post.headers.set("Host", "OCSP.Example");
  post.headers.set("Content-Type", "application/ocsp-request");
  post.headers.set("accept", "*/*");
  post.headers.set("x-TRACE", "8");
  post.body = util::bytes_of("DER");
  EXPECT_EQ(util::text_of(post.serialize()),
            "POST /ocsp HTTP/1.1\r\n"
            "accept: */*\r\n"
            "content-type: application/ocsp-request\r\n"
            "host: OCSP.Example\r\n"
            "x-trace: 8\r\n"
            "content-length: 3\r\n"
            "\r\n"
            "DER");

  HttpRequest get;
  get.method = "GET";
  get.path = "/MEow%3D";
  get.headers.set("Host", "h");
  get.headers.set("Content-Length", "0");
  get.headers.set("Connection", "close");
  EXPECT_EQ(util::text_of(get.serialize()),
            "GET /MEow%3D HTTP/1.1\r\n"
            "connection: close\r\n"
            "content-length: 0\r\n"
            "host: h\r\n"
            "\r\n");

  HttpResponse ok = HttpResponse::make(200, "OK", util::bytes_of("abc"),
                                       "application/ocsp-response");
  ok.headers.set("Connection", "keep-alive");
  ok.headers.set("Cache-Control", "max-age=300");
  EXPECT_EQ(util::text_of(ok.serialize()),
            "HTTP/1.1 200 OK\r\n"
            "cache-control: max-age=300\r\n"
            "connection: keep-alive\r\n"
            "content-type: application/ocsp-response\r\n"
            "content-length: 3\r\n"
            "\r\n"
            "abc");

  HttpResponse later;
  later.status_code = 503;
  later.reason = "Service Unavailable";
  later.headers.set("Retry-After", "60");
  later.headers.set("Content-Length", "5");
  later.body = util::bytes_of("later");
  EXPECT_EQ(util::text_of(later.serialize()),
            "HTTP/1.1 503 Service Unavailable\r\n"
            "content-length: 5\r\n"
            "retry-after: 60\r\n"
            "\r\n"
            "later");
}

// One line per parse outcome: the error as "code|detail", or the accepted
// message as its start line, its headers in stored order, and its body.
std::string describe_headers(const HeaderMap& headers) {
  std::string out;
  for (const auto& [name, value] : headers.entries()) {
    out.append(" ").append(name).append("=").append(value);
  }
  return out;
}

template <typename Message>
std::string describe(const util::Result<Message>& parsed) {
  if (!parsed.ok()) return parsed.error().code + "|" + parsed.error().detail;
  const Message& m = parsed.value();
  std::string out;
  if constexpr (std::is_same_v<Message, HttpRequest>) {
    out = "ok " + m.method + " [" + m.path + "]";
  } else {
    out = "ok " + std::to_string(m.status_code) + " [" + m.reason + "]";
  }
  return out + describe_headers(m.headers) + " body=" + util::text_of(m.body);
}

TEST(Http, ParseDecisionTable) {
  struct Case {
    bool response;  ///< HttpResponse::parse, else HttpRequest::parse
    const char* wire;
    const char* expected;
  };
  const Case cases[] = {
      // --- requests ---
      {false, "garbage", "http.no_header_terminator|"},
      {false, "GET / HTTP/1.1\r\nHost: h\r\n", "http.no_header_terminator|"},
      // The detail is the raw request line, trailing CR included.
      {false, "GET  / HTTP/1.1\r\nHost: h\r\n\r\n",
       "http.bad_request_line|GET  / HTTP/1.1\r"},
      {false, "GET /\r\n\r\n", "http.bad_request_line|GET /"},
      {false, "\r\n\r\n", "http.bad_request_line|"},
      {false, "GET / HTTP/2\r\n\r\n", "http.bad_version|HTTP/2"},
      {false, "GET / HTTP/1.1\r\nHost h\r\n\r\n", "http.bad_header|Host h"},
      {false,
       "POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 5\r\n\r\n"
       "abcde",
       "http.duplicate_content_length|4 vs 5"},
      {false,
       "POST / HTTP/1.1\r\nContent-Length: 5\r\nCONTENT-LENGTH:  5 \r\n\r\n"
       "abcde",
       "ok POST [/] content-length=5 body=abcde"},
      {false, "GET /x HTTP/1.1\r\nX-A: 1\r\nx-a: 2\r\n\r\n",
       "ok GET [/x] x-a=2 body="},
      {false, "GET / HTTP/1.1\r\nZ: 1\r\nA: 2\r\nz: 3\r\nM: 4\r\n\r\n",
       "ok GET [/] a=2 m=4 z=3 body="},
      // Lines split on LF and are trimmed; blank lines are skipped.
      {false, "GET / HTTP/1.1\nHost: h\r\n \r\n  Via :  p  \r\n\r\n",
       "ok GET [/] host=h via=p body="},
      // Exactly two spaces make three parts, even with an empty path.
      {false, "GET  HTTP/1.1\r\n\r\n", "ok GET [] body="},
      {false, "GET / HTTP/1.9\r\n\r\n", "ok GET [/] body="},
      // Request parsing takes everything after the head as the body; the
      // socket server frames by Content-Length itself.
      {false, "POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
       "ok POST [/] content-length=10 body=abc"},
      // --- responses ---
      {true, "HTTP/1.1 200 OK\r\n", "http.no_header_terminator|"},
      {true, "NOTHTTP 200 OK\r\n\r\n", "http.bad_version|NOTHTTP 200 OK"},
      {true, "HTTP/1.1 \r\n\r\n", "http.bad_status_line|"},
      {true, "HTTP/1.1  OK\r\n\r\n", "http.bad_status_code|"},
      {true, "HTTP/1.1 abc OK\r\n\r\n", "http.bad_status_code|abc"},
      {true, "HTTP/1.1 2000 OK\r\n\r\n", "http.bad_status_code|2000"},
      {true, "HTTP/1.1 599 Weird\r\n\r\n", "ok 599 [Weird] body="},
      {true, "HTTP/1.1 204\r\n\r\n", "ok 204 [] body="},
      {true, "HTTP/1.1 200 OK\r\nBad\r\n\r\n", "http.bad_header|Bad"},
      {true, "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc",
       "http.content_length_mismatch|10 vs 3"},
      {true, "HTTP/1.1 200 OK\r\ncontent-length: ten\r\n\r\n",
       "http.bad_content_length|ten"},
      {true, "HTTP/1.1 200 OK\r\ncontent-length: \r\n\r\n",
       "http.bad_content_length|"},
      {true,
       "HTTP/1.1 200 OK\r\ncontent-length: 99999999999999999999999999\r\n\r\n",
       "http.bad_content_length|99999999999999999999999999"},
      {true,
       "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabc",
       "http.duplicate_content_length|3 vs 4"},
      {true, "HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabc",
       "ok 200 [OK] content-length=3 body=abc"},
  };
  for (const Case& c : cases) {
    const Bytes wire = util::bytes_of(c.wire);
    const std::string got = c.response ? describe(HttpResponse::parse(wire))
                                       : describe(HttpRequest::parse(wire));
    EXPECT_EQ(got, c.expected) << "input: " << testing::PrintToString(c.wire);
  }
}

// ------------------------------------------------------------------- DNS --

TEST(Dns, ResolveARecord) {
  DnsZone zone;
  zone.add_a("host.example", 42);
  auto addr = zone.resolve("host.example");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value(), 42u);
  EXPECT_TRUE(zone.has_name("HOST.example"));
}

TEST(Dns, NxDomain) {
  DnsZone zone;
  auto result = zone.resolve("nowhere.example");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "dns.nxdomain");
}

TEST(Dns, CnameChainFollowed) {
  DnsZone zone;
  zone.add_a("target.example", 7);
  zone.add_cname("alias1.example", "alias2.example");
  zone.add_cname("alias2.example", "target.example");
  auto addr = zone.resolve("alias1.example");
  ASSERT_TRUE(addr.ok());
  EXPECT_EQ(addr.value(), 7u);
  EXPECT_EQ(zone.canonical_name("alias1.example"), "target.example");
  EXPECT_EQ(zone.canonical_name("target.example"), "target.example");
}

TEST(Dns, CnameLoopDetected) {
  DnsZone zone;
  zone.add_cname("a.example", "b.example");
  zone.add_cname("b.example", "a.example");
  auto result = zone.resolve("a.example");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "dns.cname_loop");
}

// ------------------------------------------------------------ event loop --

TEST(EventLoop, RunsInTimeOrder) {
  EventLoop loop(kStart);
  std::vector<int> order;
  loop.schedule_at(kStart + Duration::secs(30), [&] { order.push_back(2); });
  loop.schedule_at(kStart + Duration::secs(10), [&] { order.push_back(1); });
  loop.schedule_at(kStart + Duration::secs(50), [&] { order.push_back(3); });
  loop.run_until(kStart + Duration::secs(40));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(loop.now(), kStart + Duration::secs(40));
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), kStart + Duration::secs(50));
}

TEST(EventLoop, FifoForSameTime) {
  EventLoop loop(kStart);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule_at(kStart + Duration::secs(10), [&order, i] {
      order.push_back(i);
    });
  }
  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, CallbackMaySchedule) {
  EventLoop loop(kStart);
  int fired = 0;
  loop.schedule_after(Duration::secs(1), [&] {
    ++fired;
    loop.schedule_after(Duration::secs(1), [&] { ++fired; });
  });
  loop.run_until(kStart + Duration::secs(10));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, PastEventsClampToNow) {
  EventLoop loop(kStart);
  loop.run_until(kStart + Duration::secs(100));
  bool fired = false;
  loop.schedule_at(kStart, [&] { fired = true; });  // in the past
  loop.run_until(kStart + Duration::secs(101));
  EXPECT_TRUE(fired);
}

TEST(EventLoop, FifoTieBreakAndLifetimeCounters) {
  EventLoop loop(kStart);
  EXPECT_EQ(loop.events_dispatched(), 0u);
  EXPECT_EQ(loop.max_pending(), 0u);

  // Same-time events interleaved with an earlier one: dispatch order must be
  // time-major, then FIFO by scheduling order within the tie.
  std::vector<int> order;
  loop.schedule_at(kStart + Duration::secs(10), [&] { order.push_back(1); });
  loop.schedule_at(kStart + Duration::secs(5), [&] { order.push_back(0); });
  loop.schedule_at(kStart + Duration::secs(10), [&] { order.push_back(2); });
  loop.schedule_at(kStart + Duration::secs(10), [&] { order.push_back(3); });
  EXPECT_EQ(loop.max_pending(), 4u);  // high-water mark before any dispatch

  loop.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.events_dispatched(), 4u);
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.max_pending(), 4u);  // unchanged by draining

  // Counters keep accumulating over the loop's lifetime.
  loop.schedule_after(Duration::secs(1), [] {});
  loop.run_all();
  EXPECT_EQ(loop.events_dispatched(), 5u);
  EXPECT_EQ(loop.max_pending(), 4u);
}

#if MUSTAPLE_OBS_ENABLED

// ----------------------------------------------- trace-context propagation --

TEST(EventLoopTrace, ContextCapturedAtScheduleRestoredAtDispatch) {
  EventLoop loop(kStart);
  obs::TraceContext seen;
  {
    obs::TraceScope scope(obs::TraceContext{11, 3});
    loop.schedule_after(Duration::secs(1),
                        [&] { seen = obs::current_trace(); });
  }
  // Schedule-time context is gone by dispatch time; the captured one rules.
  EXPECT_FALSE(obs::current_trace().active());
  loop.run_all();
  EXPECT_EQ(seen.trace_id, 11u);
  EXPECT_EQ(seen.probe_id, 3u);
  // The dispatch scope is popped again after the callback.
  EXPECT_FALSE(obs::current_trace().active());
}

TEST(EventLoopTrace, NestedScheduleChainsKeepTheirIdentity) {
  EventLoop loop(kStart);
  std::vector<std::uint64_t> hops;
  {
    obs::TraceScope scope(obs::TraceContext{21, 1});
    // A three-hop chain: each callback schedules the next; all hops must
    // observe the originating context even though the originating scope died
    // long before the later hops run.
    loop.schedule_after(Duration::secs(1), [&] {
      hops.push_back(obs::current_trace().trace_id);
      loop.schedule_after(Duration::secs(1), [&] {
        hops.push_back(obs::current_trace().trace_id);
        loop.schedule_after(Duration::secs(1), [&] {
          hops.push_back(obs::current_trace().trace_id);
        });
      });
    });
  }
  loop.run_all();
  EXPECT_EQ(hops, (std::vector<std::uint64_t>{21, 21, 21}));
}

TEST(EventLoopTrace, SameTimeEventsKeepDistinctContextsInFifoOrder) {
  EventLoop loop(kStart);
  std::vector<std::uint64_t> seen;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    obs::TraceScope scope(obs::TraceContext{i, 0});
    loop.schedule_at(kStart + Duration::secs(10),
                     [&] { seen.push_back(obs::current_trace().trace_id); });
  }
  loop.run_all();
  // FIFO tie-break preserved, and no context bleeds into its neighbour.
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventLoopTrace, ContextRestoredAfterCallbackSchedulesFurtherEvents) {
  EventLoop loop(kStart);
  std::vector<std::uint64_t> seen;
  {
    obs::TraceScope scope(obs::TraceContext{31, 0});
    loop.schedule_after(Duration::secs(1), [&] {
      // Scheduling under a DIFFERENT inner context must not disturb the
      // outer events already queued with their own capture.
      obs::TraceScope inner(obs::TraceContext{32, 0});
      loop.schedule_after(Duration::secs(5),
                          [&] { seen.push_back(obs::current_trace().trace_id); });
    });
    loop.schedule_after(Duration::secs(2),
                        [&] { seen.push_back(obs::current_trace().trace_id); });
  }
  loop.run_all();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{31, 32}));
}

TEST(EventLoopTrace, UntracedScheduleDispatchesInactive) {
  EventLoop loop(kStart);
  bool active = true;
  loop.schedule_after(Duration::secs(1),
                      [&] { active = obs::current_trace().active(); });
  loop.run_all();
  EXPECT_FALSE(active);
}

#endif  // MUSTAPLE_OBS_ENABLED

// ---------------------------------------------------------------- faults --

TEST(FaultRule, WindowAndRegionScoping) {
  FaultRule rule;
  rule.canonical_host = "x.example";
  rule.mode = FaultMode::kTcpConnectFailure;
  rule.regions = {Region::kSeoul};
  rule.window_start = kStart + Duration::hours(1);
  rule.window_end = kStart + Duration::hours(3);

  EXPECT_FALSE(rule.applies("x.example", Region::kSeoul, kStart));
  EXPECT_TRUE(rule.applies("x.example", Region::kSeoul,
                           kStart + Duration::hours(2)));
  EXPECT_FALSE(rule.applies("x.example", Region::kParis,
                            kStart + Duration::hours(2)));
  EXPECT_FALSE(rule.applies("x.example", Region::kSeoul,
                            kStart + Duration::hours(3)));  // end exclusive
  EXPECT_FALSE(rule.applies("y.example", Region::kSeoul,
                            kStart + Duration::hours(2)));
}

TEST(FaultRule, OpenEndedAndGlobal) {
  FaultRule rule;
  rule.canonical_host = "dead.example";
  rule.mode = FaultMode::kDnsNxDomain;
  for (Region region : all_regions()) {
    EXPECT_TRUE(rule.applies("dead.example", region, kStart));
    EXPECT_TRUE(rule.applies("dead.example", region,
                             kStart + Duration::days(1000)));
  }
}

TEST(FaultPlan, FirstMatchWins) {
  FaultPlan plan;
  FaultRule first;
  first.canonical_host = "h.example";
  first.mode = FaultMode::kHttp404;
  plan.add(first);
  // Another host's rule between two of h.example's (A1, B1, A2).
  FaultRule other_host;
  other_host.canonical_host = "b.example";
  other_host.mode = FaultMode::kHttp503;
  plan.add(other_host);
  FaultRule second;
  second.canonical_host = "h.example";
  second.mode = FaultMode::kHttp500;
  plan.add(second);
  auto mode = plan.check("h.example", Region::kParis, kStart);
  ASSERT_TRUE(mode.has_value());
  EXPECT_EQ(*mode, FaultMode::kHttp404);
  EXPECT_EQ(plan.check("b.example", Region::kParis, kStart),
            FaultMode::kHttp503);
  EXPECT_FALSE(plan.check("other.example", Region::kParis, kStart).has_value());

  // A windowed rule added before a persistent one wins only inside its
  // window; outside it the persistent rule answers.
  FaultRule outage;
  outage.canonical_host = "w.example";
  outage.mode = FaultMode::kTcpConnectFailure;
  outage.window_start = kStart + Duration::hours(1);
  outage.window_end = kStart + Duration::hours(2);
  plan.add(outage);
  FaultRule dead;
  dead.canonical_host = "w.example";
  dead.mode = FaultMode::kDnsNxDomain;
  plan.add(dead);
  EXPECT_EQ(plan.check("w.example", Region::kParis, kStart),
            FaultMode::kDnsNxDomain);
  EXPECT_EQ(plan.check("w.example", Region::kParis,
                       kStart + Duration::minutes(90)),
            FaultMode::kTcpConnectFailure);
  EXPECT_EQ(plan.check("w.example", Region::kParis,
                       kStart + Duration::hours(2)),
            FaultMode::kDnsNxDomain);
  EXPECT_EQ(plan.size(), 5u);
}

// --------------------------------------------------------------- network --

TEST(TransportErrorNames, ToStringRoundTrips) {
  for (TransportError error :
       {TransportError::kNone, TransportError::kDnsFailure,
        TransportError::kTcpFailure, TransportError::kTlsCertInvalid}) {
    const char* text = to_string(error);
    EXPECT_STRNE(text, "?");
    auto parsed = transport_error_from_string(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    EXPECT_EQ(*parsed, error);
  }
  EXPECT_FALSE(transport_error_from_string("bogus").has_value());
  EXPECT_FALSE(transport_error_from_string("").has_value());
}

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture() : loop_(kStart), network_(loop_, 99) {
    network_.register_service(
        "svc.example", 80,
        [](const HttpRequest& request, SimTime, Region) {
          HttpResponse resp = HttpResponse::make(
              200, "OK", util::bytes_of("echo:" + request.path), "text/plain");
          return resp;
        });
  }

  Url url(const std::string& text) { return parse_url(text).value(); }

  EventLoop loop_;
  Network network_;
};

TEST_F(NetworkFixture, SuccessfulRoundTrip) {
  auto result = network_.http_get(Region::kVirginia, url("http://svc.example/abc"));
  EXPECT_EQ(result.error, TransportError::kNone);
  EXPECT_TRUE(result.success());
  EXPECT_EQ(util::text_of(result.response.body), "echo:/abc");
  EXPECT_GT(result.latency_ms, 0.0);
}

TEST_F(NetworkFixture, UnknownHostIsDnsFailure) {
  auto result = network_.http_get(Region::kVirginia, url("http://ghost.example/"));
  EXPECT_EQ(result.error, TransportError::kDnsFailure);
  EXPECT_FALSE(result.success());
}

TEST_F(NetworkFixture, RegisteredNameWrongPortIsTcpFailure) {
  auto result =
      network_.http_get(Region::kVirginia, url("http://svc.example:8080/"));
  EXPECT_EQ(result.error, TransportError::kTcpFailure);
}

TEST_F(NetworkFixture, InjectedHttpErrorsComeBackAsResponses) {
  for (auto [mode, code] :
       std::vector<std::pair<FaultMode, int>>{{FaultMode::kHttp404, 404},
                                              {FaultMode::kHttp500, 500},
                                              {FaultMode::kHttp503, 503}}) {
    FaultPlan& faults = network_.faults();
    FaultRule rule;
    rule.canonical_host = "svc.example";
    rule.mode = mode;
    rule.window_start = loop_.now();
    rule.window_end = loop_.now() + Duration::secs(1);
    faults.add(rule);
    auto result = network_.http_get(Region::kParis, url("http://svc.example/"));
    EXPECT_EQ(result.error, TransportError::kNone);
    EXPECT_EQ(result.response.status_code, code);
    EXPECT_FALSE(result.success());
    loop_.run_until(loop_.now() + Duration::secs(2));  // expire the rule
  }
}

TEST_F(NetworkFixture, InjectedDnsAndTcpFailures) {
  FaultRule dns;
  dns.canonical_host = "svc.example";
  dns.mode = FaultMode::kDnsNxDomain;
  dns.regions = {Region::kSeoul};
  network_.faults().add(dns);
  EXPECT_EQ(network_.http_get(Region::kSeoul, url("http://svc.example/")).error,
            TransportError::kDnsFailure);
  // Other regions are unaffected (the regional-persistent-failure pattern).
  EXPECT_TRUE(
      network_.http_get(Region::kOregon, url("http://svc.example/")).success());
}

TEST_F(NetworkFixture, TlsCertFaultOnlyAffectsHttps) {
  network_.register_service("secure.example", 443,
                            [](const HttpRequest&, SimTime, Region) {
                              return HttpResponse::make(200, "OK", {}, "");
                            });
  network_.register_service("secure.example", 80,
                            [](const HttpRequest&, SimTime, Region) {
                              return HttpResponse::make(200, "OK", {}, "");
                            });
  FaultRule rule;
  rule.canonical_host = "secure.example";
  rule.mode = FaultMode::kTlsCertInvalid;
  network_.faults().add(rule);
  EXPECT_EQ(
      network_.http_get(Region::kParis, url("https://secure.example/")).error,
      TransportError::kTlsCertInvalid);
  EXPECT_TRUE(
      network_.http_get(Region::kParis, url("http://secure.example/")).success());
}

TEST_F(NetworkFixture, CnameAliasSharesFaults) {
  // The Comodo pattern: an outage keyed on the canonical name takes down
  // every alias.
  network_.dns().add_cname("alias.example", "svc.example");
  FaultRule rule;
  rule.canonical_host = "svc.example";
  rule.mode = FaultMode::kTcpConnectFailure;
  network_.faults().add(rule);
  EXPECT_EQ(
      network_.http_get(Region::kParis, url("http://alias.example/")).error,
      TransportError::kTcpFailure);
}

#if MUSTAPLE_OBS_ENABLED
TEST_F(NetworkFixture, FaultKindsLandInTaxonomyCounters) {
  // Every §5.2 fault mode must increment exactly one error-kind cell of
  // mustaple_net_fetch_errors_total (dns/tcp/tls/http) and the fetch total.
  network_.register_service("secure.example", 443,
                            [](const HttpRequest&, SimTime, Region) {
                              return HttpResponse::make(200, "OK", {}, "");
                            });
  const std::vector<std::pair<FaultMode, const char*>> cases = {
      {FaultMode::kDnsNxDomain, "dns"},   {FaultMode::kTcpConnectFailure, "tcp"},
      {FaultMode::kTlsCertInvalid, "tls"}, {FaultMode::kHttp404, "http"},
      {FaultMode::kHttp500, "http"},       {FaultMode::kHttp503, "http"}};
  const std::vector<const char*> kinds = {"dns", "tcp", "tls", "http"};
  obs::Registry& registry = obs::default_registry();

  for (const auto& [mode, expected_kind] : cases) {
    const std::string host =
        mode == FaultMode::kTlsCertInvalid ? "secure.example" : "svc.example";
    const std::string target = (mode == FaultMode::kTlsCertInvalid
                                    ? "https://" : "http://") + host + "/";
    FaultRule rule;
    rule.canonical_host = host;
    rule.mode = mode;
    rule.window_start = loop_.now();
    rule.window_end = loop_.now() + Duration::secs(1);
    network_.faults().add(rule);

    std::map<std::string, std::uint64_t> before;
    for (const char* kind : kinds) {
      before[kind] = registry.counter_value("mustaple_net_fetch_errors_total",
                                            {{"kind", kind}});
    }
    const std::uint64_t total_before =
        registry.counter_value("mustaple_net_fetch_total");

    auto result = network_.http_get(Region::kVirginia, url(target));
    EXPECT_FALSE(result.success());

    EXPECT_EQ(registry.counter_value("mustaple_net_fetch_total"),
              total_before + 1);
    for (const char* kind : kinds) {
      const std::uint64_t expected =
          before[kind] + (std::string(kind) == expected_kind ? 1 : 0);
      EXPECT_EQ(registry.counter_value("mustaple_net_fetch_errors_total",
                                       {{"kind", kind}}),
                expected)
          << "fault " << to_string(mode) << " kind " << kind;
    }
    loop_.run_until(loop_.now() + Duration::secs(2));  // expire the rule
  }
}

TEST_F(NetworkFixture, CleanFetchCountsNoErrorKind) {
  obs::Registry& registry = obs::default_registry();
  const std::uint64_t total_before =
      registry.counter_value("mustaple_net_fetch_total");
  std::uint64_t errors_before = 0;
  for (const char* kind : {"dns", "tcp", "tls", "http"}) {
    errors_before += registry.counter_value("mustaple_net_fetch_errors_total",
                                            {{"kind", kind}});
  }
  EXPECT_TRUE(
      network_.http_get(Region::kVirginia, url("http://svc.example/")).success());
  EXPECT_EQ(registry.counter_value("mustaple_net_fetch_total"),
            total_before + 1);
  std::uint64_t errors_after = 0;
  for (const char* kind : {"dns", "tcp", "tls", "http"}) {
    errors_after += registry.counter_value("mustaple_net_fetch_errors_total",
                                           {{"kind", kind}});
  }
  EXPECT_EQ(errors_after, errors_before);
}
#endif  // MUSTAPLE_OBS_ENABLED

TEST_F(NetworkFixture, CnameAliasRoutesToService) {
  network_.dns().add_cname("alias2.example", "svc.example");
  auto result =
      network_.http_get(Region::kParis, url("http://alias2.example/x"));
  EXPECT_TRUE(result.success());
  EXPECT_EQ(util::text_of(result.response.body), "echo:/x");
}

TEST_F(NetworkFixture, LatencyDependsOnDistance) {
  network_.set_host_region("svc.example", Region::kVirginia);
  double near_total = 0;
  double far_total = 0;
  for (int i = 0; i < 30; ++i) {
    near_total +=
        network_.http_get(Region::kVirginia, url("http://svc.example/")).latency_ms;
    far_total +=
        network_.http_get(Region::kSydney, url("http://svc.example/")).latency_ms;
  }
  EXPECT_LT(near_total, far_total);
}

TEST(Vantage, RttMatrixSymmetricAndPositive) {
  for (Region a : all_regions()) {
    for (Region b : all_regions()) {
      EXPECT_GT(base_rtt_ms(a, b), 0.0);
      EXPECT_DOUBLE_EQ(base_rtt_ms(a, b), base_rtt_ms(b, a));
    }
    EXPECT_STRNE(to_string(a), "?");
  }
}

// ------------------------------------------- HTTP response hardening --

TEST(Http, ParseRejectsEmptyStatusCodeToken) {
  // "HTTP/1.1  OK" (two spaces) yields an empty code token; the old parser
  // folded it to status 0, which success() treated as a non-HTTP-error
  // transport result.
  auto parsed = HttpResponse::parse(util::bytes_of("HTTP/1.1  OK\r\n\r\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "http.bad_status_code");
  // Missing code entirely (status line is just the version + space).
  EXPECT_FALSE(HttpResponse::parse(util::bytes_of("HTTP/1.1 \r\n\r\n")).ok());
}

TEST(Http, ParseRejectsOversizedStatusCode) {
  auto parsed =
      HttpResponse::parse(util::bytes_of("HTTP/1.1 2000 OK\r\n\r\n"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "http.bad_status_code");
  // Three digits stay accepted.
  EXPECT_TRUE(
      HttpResponse::parse(util::bytes_of("HTTP/1.1 599 Weird\r\n\r\n")).ok());
}

TEST(Http, ParseRejectsContentLengthMismatch) {
  auto parsed = HttpResponse::parse(util::bytes_of(
      "HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc"));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, "http.content_length_mismatch");
}

TEST(Http, ParseRejectsNonNumericContentLength) {
  EXPECT_FALSE(HttpResponse::parse(util::bytes_of(
                   "HTTP/1.1 200 OK\r\ncontent-length: ten\r\n\r\n"))
                   .ok());
  EXPECT_FALSE(HttpResponse::parse(util::bytes_of(
                   "HTTP/1.1 200 OK\r\ncontent-length: \r\n\r\n"))
                   .ok());
  EXPECT_FALSE(
      HttpResponse::parse(
          util::bytes_of("HTTP/1.1 200 OK\r\ncontent-length: "
                         "99999999999999999999999999\r\n\r\n"))
          .ok());
}

TEST(Http, ParseAcceptsMatchingContentLength) {
  auto parsed = HttpResponse::parse(util::bytes_of(
      "HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabc"));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(util::text_of(parsed.value().body), "abc");
}

// ------------------------------------------- deterministic addressing --

TEST(Dns, HasAddressSeesARecords) {
  DnsZone dns;
  EXPECT_FALSE(dns.has_address(42));
  dns.add_a("a.example", 42);
  EXPECT_TRUE(dns.has_address(42));
  EXPECT_FALSE(dns.has_address(43));
}

TEST(NetworkAddressing, AutoAssignedAddressesComeFromFnvNotStdHash) {
  EventLoop loop(kStart);
  Network network(loop, 1);
  auto handler = [](const HttpRequest&, SimTime, Region) {
    return HttpResponse::make(200, "OK", {}, "");
  };
  network.register_service("ocsp.example.com", 80, handler);
  const Address expected = static_cast<Address>(
      util::fnv1a64(std::string_view("ocsp.example.com")) & 0xffffffffu);
  EXPECT_EQ(network.dns().resolve("ocsp.example.com").value(), expected);
}

TEST(NetworkAddressing, CollidingAutoAssignmentIsProbedPastNotShared) {
  EventLoop loop(kStart);
  Network network(loop, 1);
  auto handler = [](const HttpRequest&, SimTime, Region) {
    return HttpResponse::make(200, "OK", {}, "");
  };
  // Occupy the address host2 would hash to, then register host2: it must
  // land elsewhere instead of silently sharing (sharing is modelled
  // explicitly via dns().add_a, never by accident).
  const Address collided = static_cast<Address>(
      util::fnv1a64(std::string_view("b.example")) & 0xffffffffu);
  network.dns().add_a("squatter.example", collided);
  network.register_service("b.example", 80, handler);
  const Address assigned = network.dns().resolve("b.example").value();
  EXPECT_NE(assigned, collided);
  // The probe sequence is deterministic: the first LCG step.
  EXPECT_EQ(assigned, collided * 1664525u + 1013904223u);
}

// ---------------------------------------- counter-based latency model --

TEST(LatencySampling, PureFunctionOfKey) {
  const SimTime when{1'524'614'400};
  const double a = sample_probe_latency_ms(7, Region::kVirginia,
                                           Region::kParis, when, 3);
  const double b = sample_probe_latency_ms(7, Region::kVirginia,
                                           Region::kParis, when, 3);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GE(a, 1.0);
}

TEST(LatencySampling, EveryKeyFieldMatters) {
  const SimTime when{1'524'614'400};
  const double base = sample_probe_latency_ms(7, Region::kVirginia,
                                              Region::kParis, when, 3);
  EXPECT_NE(base, sample_probe_latency_ms(8, Region::kVirginia,
                                          Region::kParis, when, 3));
  EXPECT_NE(base, sample_probe_latency_ms(7, Region::kSeoul, Region::kParis,
                                          when, 3));
  EXPECT_NE(base, sample_probe_latency_ms(7, Region::kVirginia,
                                          Region::kParis,
                                          when + Duration::hours(1), 3));
  EXPECT_NE(base, sample_probe_latency_ms(7, Region::kVirginia,
                                          Region::kParis, when, 4));
}

TEST(LatencySampling, RegressionGolden) {
  // Pins the sampling scheme: any change to the key mixing or the Rng
  // alters campaign outputs everywhere, so it must be deliberate.
  const SimTime when{1'524'614'400};  // 2018-04-25 00:00:00 UTC
  const double a = sample_probe_latency_ms(2018, Region::kVirginia,
                                           Region::kVirginia, when, 1);
  const double b = sample_probe_latency_ms(2018, Region::kSaoPaulo,
                                           Region::kVirginia, when, 1);
  EXPECT_DOUBLE_EQ(a, sample_probe_latency_ms(2018, Region::kVirginia,
                                              Region::kVirginia, when, 1));
  EXPECT_DOUBLE_EQ(b, sample_probe_latency_ms(2018, Region::kSaoPaulo,
                                              Region::kVirginia, when, 1));
  // Distance shapes the mean: 2 RTT with 15% jitter keeps Sao Paulo ->
  // Virginia well above the intra-region sample.
  EXPECT_GT(b, a);
  const double rtt_near = base_rtt_ms(Region::kVirginia, Region::kVirginia);
  const double rtt_far = base_rtt_ms(Region::kSaoPaulo, Region::kVirginia);
  EXPECT_NEAR(a, 2.0 * rtt_near, rtt_near);
  EXPECT_NEAR(b, 2.0 * rtt_far, rtt_far);
}

TEST(NetworkHostCase, HostKeyedTablesMatchInAnyCase) {
  // RFC 4343: host names are case-insensitive, as DnsZone already treats
  // them. The service table, fault rules and host regions used to keep a
  // mixed-case key as given, so lookups by the lowercase URL host missed.
  EventLoop loop(kStart);
  Network network(loop, 5);
  network.register_service("OCSP.Example.com", 80,
                           [](const HttpRequest&, SimTime, Region) {
                             return HttpResponse::make(200, "OK", {}, "");
                           });
  EXPECT_TRUE(network.has_service("ocsp.example.com", 80));
  EXPECT_TRUE(network.has_service("OCSP.EXAMPLE.COM", 80));
  const Url url = parse_url("http://ocsp.example.com/").value();
  const FetchResult fetched = network.http_get(Region::kVirginia, url);
  EXPECT_EQ(fetched.error, TransportError::kNone);
  EXPECT_TRUE(fetched.success());

  const auto mean_latency_from_sydney = [&] {
    double total = 0.0;
    for (int i = 0; i < 20; ++i) {
      total += network.http_get(Region::kSydney, url).latency_ms;
    }
    return total / 20.0;
  };
  const double from_virginia_host = mean_latency_from_sydney();
  network.set_host_region("OCSP.Example.com", Region::kSydney);
  const double from_sydney_host = mean_latency_from_sydney();
  // 2 x 200 ms Sydney-Virginia RTT before, 2 x 5 ms intra-region after.
  EXPECT_LT(from_sydney_host, from_virginia_host / 4.0);

  FaultRule outage;
  outage.canonical_host = "OCSP.example.com";
  outage.mode = FaultMode::kHttp503;
  network.faults().add(outage);
  EXPECT_EQ(network.http_get(Region::kVirginia, url).response.status_code,
            503);
}

// ------------------------------------------------- prepared requests --

// A service that records every request it is handed and answers with a
// body that depends on the request, the simulated time and the region.
class WireRequestFixture : public ::testing::Test {
 protected:
  WireRequestFixture() : loop_(kStart), network_(loop_, 11) {
    network_.register_service(
        "svc.example", 80,
        [this](const HttpRequest& request, SimTime now, Region from) {
          seen_.push_back(request);
          return HttpResponse::make(
              200, "OK",
              util::bytes_of(request.method + " " + request.path + " " +
                             request.host() + " " +
                             util::text_of(request.body) + " " +
                             std::to_string(now.unix_seconds) + " " +
                             to_string(from)),
              "text/plain");
        });
  }

  static HttpRequest ocsp_post() {
    HttpRequest post;
    post.method = "POST";
    post.headers.set("Content-Type", "application/ocsp-request");
    post.body = {0x30, 0x03, 0x0a, 0x01, 0x00};
    return post;
  }

  static void expect_same_fetch(const FetchResult& a, const FetchResult& b) {
    EXPECT_EQ(a.error, b.error);
    EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
    EXPECT_EQ(a.response.status_code, b.response.status_code);
    EXPECT_EQ(a.response.reason, b.response.reason);
    EXPECT_EQ(a.response.headers.entries(), b.response.headers.entries());
    EXPECT_EQ(a.response.body, b.response.body);
  }

  EventLoop loop_;
  Network network_;
  std::vector<HttpRequest> seen_;
};

TEST_F(WireRequestFixture, HandlerSeesTheRequestAsSerializedAndReparsed) {
  const Url url = parse_url("http://svc.example/ocsp").value();
  const WireRequest wire(url, ocsp_post());
  EXPECT_EQ(wire.url().to_string(), url.to_string());
  ASSERT_TRUE(network_.http_request_probe(Region::kVirginia, wire, 1)
                  .success());

  HttpRequest sent = ocsp_post();
  sent.path = url.path;
  sent.headers.set("host", url.host);
  const auto reparsed = HttpRequest::parse(sent.serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().to_string();
  ASSERT_EQ(seen_.size(), 1u);
  const HttpRequest& got = seen_.front();
  EXPECT_EQ(got.method, reparsed.value().method);
  EXPECT_EQ(got.path, reparsed.value().path);
  EXPECT_EQ(got.headers.entries(), reparsed.value().headers.entries());
  EXPECT_EQ(got.body, reparsed.value().body);
  // The wire added what a real client sends.
  EXPECT_EQ(got.headers.get("host"), "svc.example");
  EXPECT_EQ(got.headers.get("content-length"), "5");
}

TEST_F(WireRequestFixture, ReusedRequestMatchesAFreshOneEveryCall) {
  // Seoul cannot connect, so failures are compared too.
  FaultRule seoul;
  seoul.canonical_host = "svc.example";
  seoul.regions = {Region::kSeoul};
  network_.faults().add(seoul);
  const Url url = parse_url("http://svc.example/ocsp").value();
  const WireRequest wire(url, ocsp_post());
  std::uint64_t ordinal = 0;
  for (int step = 0; step < 3; ++step) {
    loop_.run_until(kStart + Duration::hours(step));
    for (Region region : all_regions()) {
      ++ordinal;
      const FetchResult reused =
          network_.http_request_probe(region, wire, ordinal);
      const FetchResult fresh =
          network_.http_request_probe(region, url, ocsp_post(), ordinal);
      expect_same_fetch(reused, fresh);
    }
  }
  // Five reachable regions, both calls each, at every step.
  EXPECT_EQ(seen_.size(), 3u * 5u * 2u);
}

TEST_F(WireRequestFixture, UnparseableRequestIsA400AfterRouting) {
  // A space in the path gives the request line four parts.
  const Url url = parse_url("http://svc.example/a b").value();
  const WireRequest wire(url, HttpRequest{});
  ASSERT_FALSE(wire.parsed().ok());
  EXPECT_EQ(wire.parsed().error().code, "http.bad_request_line");
  const FetchResult prepared =
      network_.http_request_probe(Region::kVirginia, wire, 1);
  const FetchResult one_off =
      network_.http_request_probe(Region::kVirginia, url, HttpRequest{}, 1);
  EXPECT_EQ(prepared.error, TransportError::kNone);
  EXPECT_EQ(prepared.response.status_code, 400);
  expect_same_fetch(prepared, one_off);
  EXPECT_EQ(network_.http_get(Region::kVirginia, url).response.status_code,
            400);
  EXPECT_TRUE(seen_.empty());

  // Routing still decides first: a port with no service is a TCP failure,
  // whatever the request.
  const Url closed = parse_url("http://svc.example:81/a b").value();
  const WireRequest closed_wire(closed, HttpRequest{});
  EXPECT_EQ(
      network_.http_request_probe(Region::kVirginia, closed_wire, 2)
          .error,
      TransportError::kTcpFailure);
}

TEST_F(NetworkFixture, ProbeRequestMatchesOrdinalAndIsConst) {
  HttpRequest request;
  request.method = "GET";
  const Network& const_network = network_;
  auto a = const_network.http_request_probe(Region::kVirginia,
                                            url("http://svc.example/x"),
                                            request, 17);
  auto b = const_network.http_request_probe(Region::kVirginia,
                                            url("http://svc.example/x"),
                                            request, 17);
  EXPECT_TRUE(a.success());
  EXPECT_DOUBLE_EQ(a.latency_ms, b.latency_ms);
  auto c = const_network.http_request_probe(Region::kVirginia,
                                            url("http://svc.example/x"),
                                            request, 18);
  EXPECT_NE(a.latency_ms, c.latency_ms);
}

}  // namespace
}  // namespace mustaple::net
