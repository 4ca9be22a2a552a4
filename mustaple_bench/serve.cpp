// The two serving workloads: an OcspResponder behind net::SocketServer on
// loopback, driven open-loop at a fixed rate. Both use the same socket
// layer, connections and request mix (50/50 percent-encoded GET and POST
// over 64 certificates, 4 connections from 2 load threads, 2 server
// workers) and differ in the handler:
//
//   serve_cached  50,000 req/s; pre-generated responder behind the wire
//                 ResponseCache, so nearly every request is a cache hit and
//                 the socket layer (framing, syscalls) is most of the cost.
//   serve_sign    20,000 req/s; on-demand responder, no wire cache, and a
//                 unique seeded nonce in every request, so each one pays for
//                 HTTP parse, OCSP request parse, CertID lookup and signing
//                 under the responder mutex.
//
// Latency runs from a request's scheduled send time to the last byte of its
// response, so a stall also charges the requests queued behind it
// (coordinated omission corrected, as in wrk2).
#include <fcntl.h>
#include <strings.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "ca/authority.hpp"
#include "ca/responder.hpp"
#include "load_gen.hpp"
#include "net/network.hpp"
#include "net/socket_server.hpp"
#include "ocsp/request.hpp"
#include "ocsp/response.hpp"
#include "ocsp/verify.hpp"
#include "replay.hpp"
#include "util/hash.hpp"

namespace mustaple::bench {

namespace {

constexpr std::size_t kCerts = 64;
constexpr std::size_t kLoadThreads = 2;
constexpr std::size_t kConnsPerThread = 2;
constexpr std::size_t kServerWorkers = 2;
constexpr std::uint64_t kVerifyEvery = 16;  // full verification, 1 in 16
constexpr std::uint64_t kTraceEvery = 64;   // client/server spans, 1 in 64
// A set-up is about 2 ms of work, a unit the machine's drift moves by tens
// of percent, so a run repeats it many times and samples the machine's
// speed between repetitions (see run_serving).
constexpr int kSetups = 400;
constexpr int kSetupsPerCalibration = 8;
constexpr double kWarmupSeconds = 1.0;
constexpr double kDeadlineSeconds = 5.0;
// Above this the generator, not the server, is the stall in the latencies.
constexpr double kMaxLagP99Us = 100.0;
// The measured phase is cut into windows of this length (by scheduled send
// time); each window gets its own latency percentiles and server CPU, and
// the run reports medians over windows, so one stall moves one window and
// not the whole run.
constexpr std::uint64_t kWindowNs = 1'000'000'000;
const char* const kHost = "ocsp.bench.example";

struct ServeSpec {
  double rate = 0.0;  ///< offered requests per second
  bool cached = false;
};

ServeSpec serve_spec(const Options& options) {
  if (options.workload == "serve_cached") {
    return {options.toy ? 5'000.0 : 50'000.0, true};
  }
  return {options.toy ? 2'000.0 : 20'000.0, false};
}

/// The responder's clock: fixed, so every request falls in one
/// pre-generation cycle and runs are repeatable.
util::SimTime serve_now() { return util::make_time(2018, 5, 1, 12); }

// ---- server side -----------------------------------------------------------

/// Wraps the WireHandler handed to SocketServer. While `probing`, it
/// records which worker thread answered each "x-bench-conn" request, so the
/// load generator can spread its connections evenly over the workers
/// (SO_REUSEPORT places them by hash). While `tracing`, it times every call
/// and records a span for requests that carry "x-bench-id".
class BenchHandler {
 public:
  std::atomic<bool> probing{true};
  std::atomic<bool> tracing{false};
  AtomicHistogram latency;

  net::WireHandler wrap(net::WireHandler inner, TraceWriter& trace) {
    return [this, inner = std::move(inner), &trace](
               const net::HttpRequest& request) {
      if (probing.load(std::memory_order_relaxed)) {
        const std::string tag = request.headers.get("x-bench-conn");
        if (!tag.empty()) {
          util::MutexLock lock(mu_);
          conn_worker_[tag] = worker_locked();
        }
      }
      if (!tracing.load(std::memory_order_relaxed)) return inner(request);
      const std::uint64_t t0 = now_ns();
      net::HttpResponse response = inner(request);
      const std::uint64_t t1 = now_ns();
      latency.record(t1 - t0);
      const std::string id = request.headers.get("x-bench-id");
      if (!id.empty()) {
        int worker = 0;
        {
          util::MutexLock lock(mu_);
          worker = worker_locked();
        }
        trace.span("server.handler", kServerTrackBase + worker, t0, t1,
                   "\"bench_id\": " + id);
        trace.flow('f', std::stoull(id), kServerTrackBase + worker, t0);
      }
      return response;
    };
  }

  /// Worker index that answered the connection tagged `tag` (forgetting
  /// the tag), or -1.
  int take_worker_for(const std::string& tag) {
    util::MutexLock lock(mu_);
    const auto it = conn_worker_.find(tag);
    if (it == conn_worker_.end()) return -1;
    const int worker = it->second;
    conn_worker_.erase(it);
    return worker;
  }

 private:
  int worker_locked() MUSTAPLE_REQUIRES(mu_) {
    return workers_.emplace(std::this_thread::get_id(),
                            static_cast<int>(workers_.size()))
        .first->second;
  }

  util::Mutex mu_;
  std::map<std::thread::id, int> workers_ MUSTAPLE_GUARDED_BY(mu_);
  std::map<std::string, int> conn_worker_ MUSTAPLE_GUARDED_BY(mu_);
};

/// Everything the server side owns. Handlers hold pointers into it, so it
/// lives behind a unique_ptr and never moves; `server` is declared last so
/// its destructor stops the workers before anything they use goes away.
struct ServerSide {
  std::unique_ptr<ca::CertificateAuthority> authority;
  std::unique_ptr<ca::OcspResponder> responder;
  std::unique_ptr<net::ResponseCache> cache;
  BenchHandler bench;
  std::unique_ptr<net::SocketServer> server;
};

/// CA + issued leaves + responder + started server: the timed part of set-up
/// before the warm-up pass. `leaves` receives the issued certificates.
std::unique_ptr<ServerSide> start_server(
    const Options& options, const ServeSpec& spec, TraceWriter& trace,
    std::vector<x509::Certificate>& leaves) {
  auto side = std::make_unique<ServerSide>();
  util::Rng rng{util::hash_combine(options.seed, util::fnv1a64("serve"))};
  const util::SimTime now = serve_now();
  side->authority = std::make_unique<ca::CertificateAuthority>(
      "BenchCA", now - util::Duration::days(2000), rng);
  leaves.clear();
  for (std::size_t i = 0; i < kCerts; ++i) {
    ca::LeafRequest leaf;
    leaf.domain = "bench" + std::to_string(i) + ".example";
    leaf.not_before = now - util::Duration::days(30);
    leaf.lifetime = util::Duration::days(365);
    leaf.ocsp_urls = {std::string("http://") + kHost + "/"};
    leaves.push_back(side->authority->issue(leaf, rng));
  }
  ca::ResponderBehavior behavior;
  behavior.pre_generate = spec.cached;
  side->responder = std::make_unique<ca::OcspResponder>(
      *side->authority, behavior, kHost, rng);
  net::WireHandler handler = side->responder->wire_handler(serve_now);
  if (spec.cached) {
    side->cache = std::make_unique<net::ResponseCache>(16, 4096);
    handler = side->cache->wrap(std::move(handler));
  }
  net::SocketServer::Options server_options;
  server_options.worker_threads = kServerWorkers;
  side->server = std::make_unique<net::SocketServer>(server_options);
  side->server->add_listener("ocsp", 0,
                             side->bench.wrap(std::move(handler), trace));
  const util::Status status = side->server->start();
  if (!status.ok()) {
    throw std::runtime_error("server start failed: " +
                             status.error().to_string());
  }
  return side;
}

// ---- client side -----------------------------------------------------------

/// ocsp_load's TCP_NODELAY loopback connection, with a 5 s send and receive
/// timeout for the blocking phases (the generator itself is non-blocking).
int connect_loopback(std::uint16_t port) {
  const int fd = loadgen_detail::connect_loopback(port);
  if (fd < 0) return -1;
  struct timeval timeout {};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return fd;
}

/// One framed HTTP response inside a client read buffer.
struct Framed {
  bool status_200 = false;
  bool ocsp_type = false;  ///< content-type: application/ocsp-response
  const char* body = nullptr;
  std::size_t body_len = 0;
};

bool header_is(const char* name, std::size_t len, const char* want) {
  return len == std::strlen(want) && ::strncasecmp(name, want, len) == 0;
}

/// Frames every complete response in `in` from the front, in place, and
/// hands each to `fn`. Returns the bytes consumed (the caller compacts once
/// per read); sets `bad` on framing garbage.
template <typename Fn>
std::size_t frame_responses(const std::string& in, bool& bad, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < in.size()) {
    const char* base = in.data() + pos;
    const std::size_t avail = in.size() - pos;
    const void* terminator = ::memmem(base, avail, "\r\n\r\n", 4);
    if (terminator == nullptr) break;
    const std::size_t head_len =
        static_cast<std::size_t>(static_cast<const char*>(terminator) - base);
    if (head_len < 12 || std::memcmp(base, "HTTP/1.1 ", 9) != 0) {
      bad = true;
      break;
    }
    Framed framed;
    framed.status_200 = std::memcmp(base + 9, "200", 3) == 0;
    std::size_t content_length = std::string::npos;
    const char* end = base + head_len;
    const char* line =
        static_cast<const char*>(std::memchr(base, '\n', head_len));
    while (line != nullptr && ++line < end) {
      const char* eol = static_cast<const char*>(
          std::memchr(line, '\r', static_cast<std::size_t>(end - line)));
      if (eol == nullptr) eol = end;
      const char* colon = static_cast<const char*>(
          std::memchr(line, ':', static_cast<std::size_t>(eol - line)));
      if (colon != nullptr) {
        const std::size_t name_len = static_cast<std::size_t>(colon - line);
        const char* value = colon + 1;
        while (value < eol && *value == ' ') ++value;
        const std::size_t value_len = static_cast<std::size_t>(eol - value);
        if (header_is(line, name_len, "content-length")) {
          content_length = 0;
          for (const char* c = value; c < eol && *c >= '0' && *c <= '9'; ++c) {
            content_length = content_length * 10 +
                             static_cast<std::size_t>(*c - '0');
          }
        } else if (header_is(line, name_len, "content-type")) {
          framed.ocsp_type =
              header_is(value, value_len, "application/ocsp-response");
        }
      }
      line = static_cast<const char*>(
          std::memchr(eol, '\n', static_cast<std::size_t>(end - eol)));
    }
    if (content_length == std::string::npos) {
      bad = true;
      break;
    }
    const std::size_t total = head_len + 4 + content_length;
    if (avail < total) break;  // body still arriving
    framed.body = base + head_len + 4;
    framed.body_len = content_length;
    fn(framed);
    pos += total;
  }
  return pos;
}

/// Sends `wire` on a blocking socket and reads `expect` responses; true
/// when every one is a 200 with an OCSP body.
bool exchange(int fd, const util::Bytes& wire, std::size_t expect) {
  std::size_t off = 0;
  while (off < wire.size()) {
    const ssize_t sent =
        ::send(fd, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (sent <= 0) return false;
    off += static_cast<std::size_t>(sent);
  }
  std::string in;
  std::size_t got = 0;
  bool all_ok = true;
  char buf[16384];
  while (got < expect) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    in.append(buf, static_cast<std::size_t>(n));
    bool bad = false;
    const std::size_t used = frame_responses(in, bad, [&](const Framed& f) {
      all_ok = all_ok && f.status_200 && f.ocsp_type;
      ++got;
    });
    if (bad) return false;
    in.erase(0, used);
  }
  return all_ok;
}

/// The load generator's fixed inputs, built once outside every timer.
struct Corpus {
  std::vector<ReplayItem> items;  ///< per certificate, no nonce
  util::Bytes warmup_wire;        ///< every GET and POST, pipelined
  crypto::PublicKey issuer_key;
  util::Bytes intermediate_der;   ///< identifies the CA the corpus targets
};

util::Bytes nonce_for(std::uint64_t seed, std::uint64_t g) {
  util::Bytes nonce(16);
  const std::uint64_t a = util::mix64(util::hash_combine(seed, 2 * g));
  const std::uint64_t b = util::mix64(util::hash_combine(seed, 2 * g + 1));
  std::memcpy(nonce.data(), &a, 8);
  std::memcpy(nonce.data() + 8, &b, 8);
  return nonce;
}

struct LoadPlan {
  double rate = 0.0;
  double warmup_s = 0.0;
  double measure_s = 0.0;
  bool nonces = false;
  bool traced = false;
  std::uint64_t seed = 0;
};

struct InFlight {
  std::uint64_t g = 0;  ///< global request number
  std::uint64_t sched_ns = 0;
  std::uint64_t sent_ns = 0;
  std::uint32_t cert = 0;
};

struct Conn {
  int fd = -1;
  bool dead = false;
  bool want_out = false;
  std::string in;
  std::string out;  ///< bytes the kernel has not taken yet
  std::deque<InFlight> inflight;
};

/// Window boundaries of the measured phase: start, start + kWindowNs, ...,
/// end (the last window may be shorter).
std::vector<std::uint64_t> window_ticks(std::uint64_t start,
                                        std::uint64_t end) {
  std::vector<std::uint64_t> ticks;
  for (std::uint64_t t = start; t < end; t += kWindowNs) ticks.push_back(t);
  ticks.push_back(end);
  return ticks;
}

struct Sample {
  std::uint32_t window = 0;  ///< kWindowNs windows into the measured phase
  std::uint32_t latency_ns = 0;
};

/// What one load thread measured. Only requests scheduled inside the
/// measured window contribute samples; every request counts as attempted.
struct ThreadResult {
  std::vector<Sample> samples;
  std::vector<double> lag_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t last_recv_ns = 0;
  /// Thread CPU at each window boundary of the measured phase.
  std::vector<std::uint64_t> cpu_ticks_ns;
};

class LoadThread {
 public:
  LoadThread(std::size_t index, std::vector<int> fds, const Corpus& corpus,
             const LoadPlan& plan, std::uint64_t t0, TraceWriter& trace)
      : index_(index), corpus_(corpus), plan_(plan), t0_(t0), trace_(trace),
        rng_(util::hash_combine(plan.seed, util::fnv1a64("load") + index)) {
    for (int fd : fds) {
      conns_.emplace_back();
      conns_.back().fd = fd;
    }
  }

  ThreadResult run();

 private:
  std::uint64_t sched_ns(std::uint64_t k) const {
    const std::uint64_t g = k * kLoadThreads + index_;
    return t0_ + static_cast<std::uint64_t>(static_cast<double>(g) * 1e9 /
                                            plan_.rate);
  }
  bool in_measured(std::uint64_t sched) const {
    return sched >= measure_start_ && sched < measure_end_;
  }
  void send_request(std::uint64_t k, std::uint64_t sched);
  void flush(Conn& conn);
  void on_readable(Conn& conn);
  void check(const InFlight& request, const Framed& framed,
             std::uint64_t recv_ns);
  void fail_all(Conn& conn);
  void set_interest(Conn& conn);

  std::size_t index_;
  const Corpus& corpus_;
  const LoadPlan& plan_;
  std::uint64_t t0_;
  std::uint64_t measure_start_ = 0;
  std::uint64_t measure_end_ = 0;
  TraceWriter& trace_;
  util::Rng rng_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  ThreadResult result_;
  util::Bytes scratch_;
};

void LoadThread::set_interest(Conn& conn) {
  const bool want_out = !conn.out.empty();
  if (want_out == conn.want_out) return;
  conn.want_out = want_out;
  struct epoll_event ev {};
  ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
  ev.data.u64 = static_cast<std::uint64_t>(&conn - conns_.data());
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void LoadThread::flush(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t sent = ::send(conn.fd, conn.out.data(), conn.out.size(),
                                MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent > 0) {
      conn.out.erase(0, static_cast<std::size_t>(sent));
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (sent < 0 && errno == EINTR) continue;
    fail_all(conn);
    return;
  }
  set_interest(conn);
}

void LoadThread::fail_all(Conn& conn) {
  if (!conn.dead) {
    std::fprintf(stderr, "load thread %zu: connection lost with %zu requests "
                 "in flight\n", index_, conn.inflight.size());
  }
  if (!conn.dead) ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  conn.dead = true;
  result_.failed += conn.inflight.size();
  conn.inflight.clear();
  conn.out.clear();
}

void LoadThread::send_request(std::uint64_t k, std::uint64_t sched) {
  Conn& conn = conns_[k % conns_.size()];
  ++result_.attempted;
  if (conn.dead) {
    ++result_.failed;
    return;
  }
  const std::uint64_t g = k * kLoadThreads + index_;
  const auto cert = static_cast<std::uint32_t>(rng_.uniform(kCerts));
  const bool get = rng_.uniform(2) == 0;
  const ReplayItem& item = corpus_.items[cert];
  const bool traced = plan_.traced && g % kTraceEvery == 0;
  const util::Bytes* wire = get ? &item.get_wire : &item.post_wire;
  if (plan_.nonces || traced) {
    util::Bytes der = item.request_der;
    if (plan_.nonces) {
      ocsp::OcspRequest request = ocsp::OcspRequest::single(item.id);
      request.set_nonce(nonce_for(plan_.seed, g));
      der = request.encode_der();
    }
    std::vector<std::pair<std::string, std::string>> extra;
    if (traced) extra.emplace_back("x-bench-id", std::to_string(g + 1));
    scratch_ = request_wire(kHost, der, get, extra);
    wire = &scratch_;
  }
  const std::uint64_t sent = now_ns();
  conn.inflight.push_back(InFlight{g, sched, sent, cert});
  if (in_measured(sched)) {
    result_.lag_us.push_back(ns_to_us(static_cast<double>(sent - sched)));
  }
  conn.out.append(reinterpret_cast<const char*>(wire->data()), wire->size());
  flush(conn);
}

void LoadThread::check(const InFlight& request, const Framed& framed,
                       std::uint64_t recv_ns) {
  bool ok = framed.status_200 && framed.ocsp_type;
  if (ok) {
    const util::Bytes body(framed.body, framed.body + framed.body_len);
    const auto parsed = ocsp::OcspResponse::parse(body);
    ok = parsed.ok() && parsed.value().successful();
    if (ok && request.g % kVerifyEvery == 0) {
      // Signature against the CA intermediate, the serial, and on the
      // signing workload the echoed nonce.
      std::optional<util::Bytes> nonce;
      if (plan_.nonces) nonce = nonce_for(plan_.seed, request.g);
      ok = ocsp::verify_ocsp_response_static(
               body, corpus_.items[request.cert].id, corpus_.issuer_key,
               nonce)
               .outcome == ocsp::CheckOutcome::kOk;
    }
  }
  if (!ok) {
    if (result_.failed < 5) {
      std::fprintf(stderr, "request %llu failed its response checks\n",
                   static_cast<unsigned long long>(request.g));
    }
    ++result_.failed;
  }
  if (in_measured(request.sched_ns)) {
    const std::uint64_t latency = recv_ns - request.sched_ns;
    result_.samples.push_back(Sample{
        static_cast<std::uint32_t>((request.sched_ns - measure_start_) /
                                   kWindowNs),
        static_cast<std::uint32_t>(
            std::min<std::uint64_t>(latency, UINT32_MAX))});
    result_.last_recv_ns = std::max(result_.last_recv_ns, recv_ns);
  }
  if (plan_.traced && request.g % kTraceEvery == 0) {
    const int track = kClientTrackBase + static_cast<int>(index_);
    trace_.span("client.request", track, request.sent_ns, recv_ns,
                "\"bench_id\": " + std::to_string(request.g + 1));
    trace_.flow('s', request.g + 1, track, request.sent_ns);
  }
}

void LoadThread::on_readable(Conn& conn) {
  char buf[65536];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = true;
    break;
  }
  const std::uint64_t recv = now_ns();
  bool bad = false;
  const std::size_t used = frame_responses(conn.in, bad, [&](const Framed& f) {
    if (conn.inflight.empty()) {
      bad = true;  // a response nobody asked for
      return;
    }
    const InFlight request = conn.inflight.front();
    conn.inflight.pop_front();
    check(request, f, recv);
  });
  conn.in.erase(0, used);
  if (bad || closed) fail_all(conn);
}

ThreadResult LoadThread::run() {
  tighten_timer_slack();
  measure_start_ =
      t0_ + static_cast<std::uint64_t>(plan_.warmup_s * 1e9);
  measure_end_ =
      measure_start_ + static_cast<std::uint64_t>(plan_.measure_s * 1e9);
  const std::uint64_t deadline =
      measure_end_ + static_cast<std::uint64_t>(kDeadlineSeconds * 1e9);
  const std::uint64_t per_thread_rate = static_cast<std::uint64_t>(
      plan_.rate / static_cast<double>(kLoadThreads));
  result_.samples.reserve(static_cast<std::size_t>(
      static_cast<double>(per_thread_rate) * plan_.measure_s * 1.05) + 64);
  result_.lag_us.reserve(result_.samples.capacity());

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const int fd = conns_[i].fd;
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  const std::vector<std::uint64_t> ticks =
      window_ticks(measure_start_, measure_end_);
  std::uint64_t k = 0;
  std::array<struct epoll_event, 8> events{};
  for (;;) {
    std::uint64_t now = now_ns();
    while (result_.cpu_ticks_ns.size() < ticks.size() &&
           now >= ticks[result_.cpu_ticks_ns.size()]) {
      result_.cpu_ticks_ns.push_back(thread_cpu_ns());
    }
    const bool ticking = result_.cpu_ticks_ns.size() < ticks.size();
    for (std::uint64_t s = sched_ns(k); s < measure_end_ && s <= now;
         s = sched_ns(k)) {
      send_request(k++, s);
    }
    const bool sending = sched_ns(k) < measure_end_;
    std::size_t inflight = 0;
    for (const Conn& conn : conns_) inflight += conn.inflight.size();
    if (!sending && inflight == 0 && !ticking) break;
    if (now >= deadline) break;

    std::uint64_t wake = sending ? sched_ns(k) : deadline;
    if (ticking) wake = std::min(wake, ticks[result_.cpu_ticks_ns.size()]);
    now = now_ns();
    const std::uint64_t wait = wake > now ? wake - now : 0;
    const struct timespec timeout {
      static_cast<time_t>(wait / 1'000'000'000ULL),
          static_cast<long>(wait % 1'000'000'000ULL)
    };
    const int n = ::epoll_pwait2(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()), &timeout,
                                 nullptr);
    for (int i = 0; i < n; ++i) {
      Conn& conn = conns_[events[i].data.u64];
      if (conn.dead) continue;
      if (events[i].events & EPOLLOUT) flush(conn);
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) on_readable(conn);
    }
  }
  for (Conn& conn : conns_) {
    if (!conn.inflight.empty()) {
      std::fprintf(stderr, "load thread %zu: %zu requests unanswered at the "
                   "deadline\n", index_, conn.inflight.size());
    }
    result_.failed += conn.inflight.size();
    ::close(conn.fd);
  }
  ::close(epoll_fd_);
  return std::move(result_);
}

struct Session {
  std::vector<double> latency_us;
  std::vector<double> lag_us;
  /// Per measured window: latency p50 and p99, and server CPU per request.
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_cpu_us;
  std::uint64_t measured = 0;
  double ops_per_s = 0.0;
  double server_cpu_us_per_req = 0.0;
  double gen_cpu_us_per_req = 0.0;
};

/// One open-loop session over already-placed connections (closed at the
/// end). Updates report.attempted / report.failed.
Session run_session(std::vector<int> fds, const Corpus& corpus,
                    const LoadPlan& plan, Report& report, TraceWriter& trace) {
  const std::uint64_t t0 = now_ns() + 5'000'000;  // threads are up by then
  const std::uint64_t measure_start =
      t0 + static_cast<std::uint64_t>(plan.warmup_s * 1e9);
  const std::uint64_t measure_end =
      measure_start + static_cast<std::uint64_t>(plan.measure_s * 1e9);
  const std::vector<std::uint64_t> ticks =
      window_ticks(measure_start, measure_end);
  std::vector<std::unique_ptr<LoadThread>> loaders;
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    std::vector<int> mine(fds.begin() + static_cast<std::ptrdiff_t>(
                                            t * kConnsPerThread),
                          fds.begin() + static_cast<std::ptrdiff_t>(
                                            (t + 1) * kConnsPerThread));
    loaders.push_back(std::make_unique<LoadThread>(t, std::move(mine), corpus,
                                                   plan, t0, trace));
  }
  std::vector<ThreadResult> results(kLoadThreads);
  std::vector<std::string> errors(kLoadThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        results[t] = loaders[t]->run();
      } catch (const std::exception& error) {
        errors[t] = error.what();
      }
    });
  }
  std::vector<std::uint64_t> process_ticks;
  for (const std::uint64_t tick : ticks) {
    sleep_until_ns(tick);
    process_ticks.push_back(process_cpu_ns());
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    report.check(errors[t].empty(), "load thread: " + errors[t]);
    report.check(results[t].cpu_ticks_ns.size() == ticks.size(),
                 "load thread saw every window boundary");
  }
  trace.span("serve.warmup", kDriverTrack, t0, measure_start);
  trace.span("serve.measure", kDriverTrack, measure_start, measure_end);

  Session session;
  const std::size_t windows = ticks.size() - 1;
  std::uint64_t last_recv = measure_start;
  std::vector<std::vector<double>> per_window(windows);
  // Server CPU per window: process CPU minus the load threads' CPU.
  std::vector<double> server_cpu_ns(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    server_cpu_ns[w] =
        static_cast<double>(process_ticks[w + 1] - process_ticks[w]);
  }
  double load_cpu_ns = 0.0;
  for (const ThreadResult& r : results) {
    report.attempted += r.attempted;
    report.failed += r.failed;
    last_recv = std::max(last_recv, r.last_recv_ns);
    for (std::size_t w = 0; w + 1 < r.cpu_ticks_ns.size() && w < windows;
         ++w) {
      const auto ns =
          static_cast<double>(r.cpu_ticks_ns[w + 1] - r.cpu_ticks_ns[w]);
      server_cpu_ns[w] -= ns;
      load_cpu_ns += ns;
    }
    for (const Sample& s : r.samples) {
      const double us = ns_to_us(static_cast<double>(s.latency_ns));
      session.latency_us.push_back(us);
      if (s.window < windows) per_window[s.window].push_back(us);
    }
    session.lag_us.insert(session.lag_us.end(), r.lag_us.begin(),
                          r.lag_us.end());
  }
  double total_server_ns = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<double>& window = per_window[w];
    total_server_ns += server_cpu_ns[w];
    if (window.empty()) continue;
    session.window_cpu_us.push_back(ns_to_us(server_cpu_ns[w]) /
                                    static_cast<double>(window.size()));
    session.window_p50_us.push_back(percentile(window, 0.5));
    session.window_p99_us.push_back(percentile(window, 0.99));
  }
  session.measured = session.latency_us.size();
  const double n =
      static_cast<double>(std::max<std::uint64_t>(1, session.measured));
  session.ops_per_s =
      static_cast<double>(session.measured) /
      ns_to_s(static_cast<double>(last_recv - measure_start));
  session.server_cpu_us_per_req = ns_to_us(total_server_ns) / n;
  session.gen_cpu_us_per_req = ns_to_us(load_cpu_ns) / n;
  return session;
}

/// Opens connections until each server worker holds an equal share: a
/// worker answering more connections than another would make latency and
/// CPU depend on the kernel's SO_REUSEPORT hash of random source ports.
std::vector<int> place_connections(ServerSide& side, const Corpus& corpus) {
  const std::size_t want = kLoadThreads * kConnsPerThread;
  const std::size_t quota = want / kServerWorkers;
  std::map<int, std::size_t> per_worker;
  std::vector<int> fds;
  side.bench.probing.store(true, std::memory_order_relaxed);
  const std::uint16_t port = side.server->port(std::size_t{0});
  for (int attempt = 0; attempt < 64 && fds.size() < want; ++attempt) {
    const int fd = connect_loopback(port);
    if (fd < 0) throw std::runtime_error("connect to the bench server failed");
    const std::string tag = std::to_string(attempt);
    const util::Bytes wire = request_wire(
        kHost, corpus.items[0].request_der, false, {{"x-bench-conn", tag}});
    if (!exchange(fd, wire, 1)) {
      ::close(fd);
      throw std::runtime_error("placement request failed");
    }
    const int worker = side.bench.take_worker_for(tag);
    if (worker >= 0 && per_worker[worker] < quota) {
      ++per_worker[worker];
      fds.push_back(fd);
    } else {
      ::close(fd);
    }
  }
  side.bench.probing.store(false, std::memory_order_relaxed);
  if (fds.size() < want) {
    throw std::runtime_error("could not balance connections over workers");
  }
  return fds;
}

}  // namespace

bool is_serving(const std::string& workload) {
  return workload == "serve_cached" || workload == "serve_sign";
}

void run_serving(const Options& options, Report& report, TraceWriter& trace) {
  const ServeSpec spec = serve_spec(options);
  Corpus corpus;
  std::vector<x509::Certificate> leaves;
  std::unique_ptr<ServerSide> side;
  std::vector<double> setup_s;
  // Untraced runs sample the machine speed for the session 5 times before
  // set-up and 5 times after the session, with no server alive. (A sample
  // allocates 4 MiB, so none is taken while a server holds its memory.)
  Calibration calibration;
  for (int i = 0; !options.trace && i < 5; ++i) calibration.sample();

  // Set-up, many times: CA + leaves + responder + server start, and one
  // closed-loop pass over the corpus. Building the corpus is excluded.
  // Untraced runs sample the machine speed before every
  // kSetupsPerCalibration-th set-up, with no server alive, and scale
  // setup_s by those samples: the speed while set-up ran.
  Calibration setup_calibration;
  const int setups = options.toy ? kSetupsPerCalibration : kSetups;
  for (int i = 0; i < setups; ++i) {
    side.reset();
    if (!options.trace && i % kSetupsPerCalibration == 0) {
      setup_calibration.sample();
    }
    const std::uint64_t t0 = now_ns();
    side = start_server(options, spec, trace, leaves);
    const std::uint64_t t1 = now_ns();
    const util::Bytes intermediate =
        side->authority->intermediate_cert().encode_der();
    if (corpus.items.empty()) {
      for (const auto& leaf : leaves) {
        const auto id = ocsp::CertId::for_certificate(
            leaf, side->authority->intermediate_cert());
        corpus.items.push_back(make_replay_item(id, std::nullopt, kHost,
                                                *side->responder,
                                                *side->authority));
        const ReplayItem& item = corpus.items.back();
        corpus.warmup_wire.insert(corpus.warmup_wire.end(),
                                  item.get_wire.begin(), item.get_wire.end());
        corpus.warmup_wire.insert(corpus.warmup_wire.end(),
                                  item.post_wire.begin(), item.post_wire.end());
      }
      corpus.issuer_key = side->authority->intermediate_cert().public_key();
      corpus.intermediate_der = intermediate;
    }
    report.check(intermediate == corpus.intermediate_der,
                 "set-up is deterministic in the seed");
    const std::uint64_t t2 = now_ns();
    const int fd = connect_loopback(side->server->port(std::size_t{0}));
    const bool warm = fd >= 0 && exchange(fd, corpus.warmup_wire, 2 * kCerts);
    if (fd >= 0) ::close(fd);
    report.check(warm, "warm-up pass answered every request with OCSP");
    const std::uint64_t t3 = now_ns();
    setup_s.push_back(ns_to_s(static_cast<double>((t1 - t0) + (t3 - t2))));
    trace.span("setup.server", kDriverTrack, t0, t1);
    trace.span("setup.warmup_pass", kDriverTrack, t2, t3);
  }
  // The corpus points at the first set-up's responder; aim it at the live one.
  for (ReplayItem& item : corpus.items) {
    item.responder = side->responder.get();
    item.authority = side->authority.get();
  }

  LoadPlan plan;
  plan.rate = spec.rate;
  plan.warmup_s = options.toy ? 0.2 : kWarmupSeconds;
  plan.nonces = !spec.cached;
  plan.seed = util::hash_combine(options.seed, util::fnv1a64("requests"));

  if (!options.trace) {
    plan.measure_s = options.seconds;
    const Session s = run_session(place_connections(*side, corpus), corpus,
                                  plan, report, trace);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    side.reset();
    for (int i = 0; i < 5; ++i) calibration.sample();
    const double time = calibration.time_factor();
    report.scaled("setup_s", median(setup_s), setup_calibration.time_factor(),
                  "s");
    report.note("setup_calibration_ms", setup_calibration.median_ms());
    // Pinned to the offered rate while the server keeps up, so not scaled.
    report.metric("ops_per_s", s.ops_per_s, "1/s");
    report.scaled("cpu_us_per_op", median(s.window_cpu_us), time, "us");
    report.scaled("p50_us", median(s.window_p50_us), time, "us");
    report.note("calibration_ms", calibration.median_ms());
    report_tail(report, false, median(s.window_p99_us), s.latency_us);
    std::vector<double> lag = s.lag_us;
    const double lag_p99 = percentile(lag, 0.99);
    report.note("gen.lag_p99_us", lag_p99);
    report.note("gen.cpu_us_per_req", s.gen_cpu_us_per_req);
    if (lag_p99 > kMaxLagP99Us) {
      std::fprintf(stderr,
                   "warning: generator lag p99 %.0f us > %.0f us; latencies "
                   "include the generator's own stalls\n",
                   lag_p99, kMaxLagP99Us);
    }
    return;
  }

  // Traced run: an untraced half (overhead baseline and the generator and
  // latency diagnostics), then a half with the handler timed and 1 request
  // in 64 carrying x-bench-id.
  plan.measure_s = options.seconds / 2;
  const Session plain = run_session(place_connections(*side, corpus), corpus,
                                    plan, report, trace);
  const net::SocketServerStats before = side->server->stats();
  side->bench.tracing.store(true, std::memory_order_relaxed);
  plan.traced = true;
  const Session traced = run_session(place_connections(*side, corpus), corpus,
                                     plan, report, trace);
  side->bench.tracing.store(false, std::memory_order_relaxed);
  const net::SocketServerStats after = side->server->stats();

  const double handler_mean_us = ns_to_us(side->bench.latency.mean_ns());
  report.metric("ca.handler_us.p50",
                ns_to_us(side->bench.latency.percentile_ns(0.5)), "us");
  report.metric("ca.handler_us.p99",
                ns_to_us(side->bench.latency.percentile_ns(0.99)), "us");
  report.metric("net.socket_us_per_req",
                traced.server_cpu_us_per_req - handler_mean_us, "us");

  const double requests = static_cast<double>(after.requests - before.requests);
  report.metric("net.server.requests", requests, "count");
  report.metric("net.server.connections",
                static_cast<double>(after.connections_accepted -
                                    before.connections_accepted),
                "count");
  const auto per_request = [requests](std::uint64_t total) {
    return static_cast<double>(total) / requests;
  };
  report.metric("net.server.bytes_in_per_req",
                per_request(after.bytes_in - before.bytes_in), "B");
  report.metric("net.server.bytes_out_per_req",
                per_request(after.bytes_out - before.bytes_out), "B");
  report.metric("net.server.responses_4xx",
                static_cast<double>(after.responses_400 + after.responses_408 +
                                    after.responses_431 - before.responses_400 -
                                    before.responses_408 -
                                    before.responses_431),
                "count");
  if (side->cache) {
    const auto stats = side->cache->stats();
    report.metric("net.wire_cache.hit_ratio",
                  static_cast<double>(stats.hits) /
                      static_cast<double>(stats.lookups),
                  "ratio");
  }

  report_alloc_peaks(report);

  report_tail(report, true, median(plain.window_p99_us), plain.latency_us);
  std::vector<double> lag = plain.lag_us;
  report.metric("gen.lag_p99_us", percentile(lag, 0.99), "us");
  report.metric("gen.cpu_us_per_req", plain.gen_cpu_us_per_req, "us");
  report.metric("trace.overhead_pct",
                100.0 * (traced.server_cpu_us_per_req -
                         plain.server_cpu_us_per_req) /
                    plain.server_cpu_us_per_req,
                "%");

  // Replays over this workload's own requests: on serve_sign every item
  // carries a nonce, so the responder signs on every call.
  std::vector<ReplayItem> items;
  for (std::size_t i = 0; i < corpus.items.size(); ++i) {
    const ReplayItem& base = corpus.items[i];
    std::optional<util::Bytes> nonce;
    if (plan.nonces) nonce = nonce_for(plan.seed, i);
    items.push_back(make_replay_item(base.id, nonce, kHost, *side->responder,
                                     *side->authority));
  }
  const util::SimTime now = serve_now();
  std::map<std::string, double> us = replay_layers(items, now, trace);
  {
    // The simulated transport the campaigns use, against this responder.
    net::EventLoop loop(now);
    net::Network network(loop, options.seed);
    side->responder->install(network);
    auto url = net::parse_url(std::string("http://") + kHost + "/");
    std::uint64_t ordinal = 0;
    us["net.probe_us"] =
        time_per_call(trace, "net.probe", items.size(), [&](std::size_t i) {
          net::HttpRequest request;
          request.method = "POST";
          request.body = items[i].request_der;
          request.headers.set("content-type", "application/ocsp-request");
          (void)network.http_request_probe(net::Region::kVirginia, url.value(),
                                           std::move(request), ++ordinal);
        });
  }
  for (const auto& [name, value] : us) {
    if (name != "ca.handle_us") report.metric(name, value, "us");
  }
  // The live handler against the same handler replayed on one thread: the
  // difference is time spent waiting (the responder mutex, the cache's
  // shard locks) rather than working.
  const double replay_handler_us =
      spec.cached ? us.at("net.wire_cache.hit_us") : us.at("ca.handle_us");
  report.metric("ca.lock_wait_us", handler_mean_us - replay_handler_us, "us");
}

}  // namespace mustaple::bench

