// Real-socket serving mode: a multi-worker epoll + eventfd event loop that
// binds HTTP handler functions to actual TCP listeners. It is the one HTTP
// server loop in the repo: it serves the OCSP responder, CRL server and web
// server adapters over the same HTTP/1.1 + OCSP wire formats the simulated
// Network already exercises, and the loopback introspection port
// (obs::IntrospectionServer, one listener on one worker with keep_alive off).
//
//   * N worker threads, each with its OWN epoll set and its OWN listen
//     socket per configured listener (SO_REUSEPORT): the kernel load-
//     balances accepted connections across workers, so there is no shared
//     accept lock and no cross-worker connection handoff. A fixed port is
//     first bound exclusively, so a port another server holds fails with
//     "serve.bind" instead of being shared.
//   * Edge-triggered (EPOLLET) readiness with drain-to-EAGAIN read/write
//     loops — one epoll wakeup per readiness transition, not per byte.
//   * HTTP/1.1 keep-alive with pipelining: requests are framed by header
//     terminator + Content-Length and answered in arrival order on the
//     same connection; "Connection: close" (or a protocol error) drains
//     and closes.
//   * Multiple named listeners, each with its own handler — one process
//     serves OCSP, CRL, and web traffic on three ports from one pool.
//
// Protections: a per-connection read deadline answers stalled requests
// with 408, and a request-size cap answers oversized heads or bodies with
// 431 before any handler runs. Handlers execute on worker threads — they
// must be thread-safe (the OCSP responder and CRL server already are; the
// web server adapter serializes internally).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/http.hpp"
#include "util/result.hpp"
#include "util/sharded_cache.hpp"

namespace mustaple::net {

/// A request-to-response function bound to one listener. Runs on worker
/// threads: must be thread-safe and must not block indefinitely.
using WireHandler = std::function<HttpResponse(const HttpRequest&)>;

/// Monotone serving counters, aggregated across workers. hits the same
/// conservation discipline as the scanner caches: every accepted connection
/// is eventually counted closed, and every framed request is answered.
struct SocketServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;  ///< over per-worker capacity
  std::uint64_t connections_closed = 0;
  std::uint64_t requests = 0;          ///< fully framed, handler answered
  std::uint64_t responses_400 = 0;     ///< parse / framing errors
  std::uint64_t responses_408 = 0;     ///< read-deadline sweeps
  std::uint64_t responses_431 = 0;     ///< size-cap rejections
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

class SocketServer {
 public:
  struct Options {
    /// Loopback by default; widening this is an explicit operator decision.
    std::string bind_address = "127.0.0.1";
    /// 0 picks min(4, hardware_concurrency). Each worker owns one epoll set
    /// and one SO_REUSEPORT listen socket per listener.
    std::size_t worker_threads = 0;
    /// Accepted connections beyond this PER WORKER are closed immediately.
    std::size_t max_connections = 1024;
    /// A request whose head + declared body exceeds this is answered 431.
    std::size_t max_request_bytes = 256 * 1024;
    /// A connection that has made no request progress within this window is
    /// answered 408 (mid-request) or silently closed (idle keep-alive).
    std::uint64_t read_timeout_ms = 5000;
    /// Answer "Connection: keep-alive" and serve pipelined requests; when
    /// false every connection closes after its first response.
    bool keep_alive = true;
    int listen_backlog = 511;
  };

  SocketServer();  ///< default Options
  explicit SocketServer(Options options);
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;
  ~SocketServer();

  /// Registers a listener before start(). `port` 0 asks the kernel for an
  /// ephemeral port (read it back via port()). Returns the listener index.
  std::size_t add_listener(std::string name, std::uint16_t port,
                           WireHandler handler);

  /// Binds every listener on every worker and spawns the worker threads.
  /// Fails with a stable code ("serve.bind", "serve.epoll", ...) rather
  /// than throwing; on failure no threads are left running.
  util::Status start();
  /// Stops all workers and closes every socket (idempotent).
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The actually-bound port of listener `index` (0 before start).
  std::uint16_t port(std::size_t index) const;
  /// By name; 0 when unknown.
  std::uint16_t port(const std::string& name) const;
  std::size_t listener_count() const { return listeners_.size(); }
  std::size_t worker_count() const { return workers_.size(); }

  SocketServerStats stats() const;

 private:
  struct Listener {
    std::string name;
    std::uint16_t requested_port = 0;
    WireHandler handler;
    std::atomic<std::uint16_t> bound_port{0};
  };
  struct Connection;
  struct Worker;

  void serve_loop(Worker& worker);
  void accept_ready(Worker& worker, std::size_t listener_index);
  /// Returns false when the connection should be dropped immediately.
  bool connection_ready(Worker& worker, Connection& conn,
                        std::uint32_t events);
  /// Frames and answers every complete pipelined request in conn.in.
  /// Returns false on a fatal framing state (drop without response).
  bool drain_requests(Connection& conn);
  void queue_response(Connection& conn, HttpResponse response,
                      bool close_after);
  /// Flushes conn.out; returns false when the connection must close now.
  bool flush_ready(Worker& worker, Connection& conn);
  void update_interest(Worker& worker, Connection& conn);
  void close_connection(Worker& worker, Connection& conn);
  void sweep_expired(Worker& worker);
  void close_worker_fds(Worker& worker);

  Options options_;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{false};

  // Monotone, relaxed: aggregated into SocketServerStats on demand.
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> r400_{0};
  std::atomic<std::uint64_t> r408_{0};
  std::atomic<std::uint64_t> r431_{0};
  std::atomic<std::uint64_t> bytes_in_{0};
  std::atomic<std::uint64_t> bytes_out_{0};
};

/// Lock-striped wire-level response cache for deterministic handlers: maps
/// (method, path, body) — plus an optional caller-supplied epoch, e.g. the
/// responder's pre-generation cycle — to the complete HttpResponse, skipping
/// percent/base64/DER decode and the responder's cache mutex on repeat
/// requests. Hits are verified against the stored request (full compare,
/// not just the 64-bit key); a mismatch recomputes and counts via
/// note_collision.
///
/// Only sound in front of handlers that are pure functions of
/// (request, epoch) — the pre-generated OCSP responder and the CRL server
/// qualify; an on-demand responder echoing nonces does not.
class ResponseCache {
 public:
  /// `shards` is rounded up to a power of two; `capacity` bounds total
  /// cached entries (clear-on-limit per shard).
  ResponseCache(std::size_t shards, std::size_t capacity)
      : cache_(shards, capacity) {}

  /// Wraps `inner`; `epoch` (optional) is folded into every key so advancing
  /// it invalidates the whole cache without clearing.
  WireHandler wrap(WireHandler inner,
                   std::function<std::uint64_t()> epoch = nullptr);

  util::ShardedCacheStats stats() const { return cache_.totals(); }

 private:
  struct Entry {
    std::string method;
    std::string path;
    util::Bytes body;
    std::uint64_t epoch = 0;
    HttpResponse response;
  };
  util::ShardedCache<Entry> cache_;
};

}  // namespace mustaple::net
