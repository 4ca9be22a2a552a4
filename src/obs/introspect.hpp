// Pillar 7 (live introspection): a loopback HTTP port that makes a running
// campaign observable from outside the process. The routes live here; the
// serving is one net::SocketServer listener (one worker, keep-alive off),
// so the port shares the serving mode's accept, framing, 408/431 and flush
// logic instead of running a loop of its own:
//
//   * GET /metrics  — Prometheus text exposition of every attached Registry
//   * GET /healthz  — liveness ("ok")
//   * GET /statusz  — human-readable status: process resources, campaign
//                     progress (via a pluggable provider), top profile
//                     phases
//
// Security posture: binds 127.0.0.1 by default and never reads request
// bodies; it is a loopback diagnostics port, not a service endpoint
// (docs/OBSERVABILITY.md, "Introspection server"). Serving threads only
// READ observability state, so a live /metrics scrape cannot perturb
// campaign outputs — the determinism contract is unaffected.
//
// The server is plain library code compiled regardless of MUSTAPLE_OBS_OFF
// (same policy as Registry/Timeline); only the macro layer compiles out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/http.hpp"
#include "net/socket_server.hpp"
#include "util/mutex.hpp"
#include "util/result.hpp"
#include "util/thread_annotations.hpp"

namespace mustaple::obs {

class Registry;
class Profiler;
class HealthMonitor;

class IntrospectionServer {
 public:
  struct Options {
    /// Loopback by default; widening this is an explicit operator decision.
    std::string bind_address = "127.0.0.1";
    /// 0 asks the kernel for an ephemeral port; read it back via port().
    std::uint16_t port = 0;
  };

  /// Accepted connections beyond this are closed immediately.
  static constexpr std::size_t kMaxConnections = 64;
  /// Requests whose head or declared body grows past this get a 431.
  static constexpr std::size_t kMaxRequestBytes = 64 * 1024;
  /// A request not completed within this window is answered 408 — a slow
  /// or stalled loopback client must never pin a connection slot.
  static constexpr std::uint64_t kReadTimeoutMs = 5000;

  /// Supplies the free-form middle section of /statusz (campaign progress,
  /// cache hit rates, ...). Called from the serving thread: must be
  /// thread-safe and read-only.
  using StatusProvider = std::function<std::string()>;

  IntrospectionServer();  ///< default Options
  explicit IntrospectionServer(Options options);
  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  /// Attaches a registry rendered at /metrics (and summarized in /statusz).
  /// The pointer must outlive the server. Call before start().
  void add_registry(std::string name, const Registry* registry);
  /// Attaches the profiler whose top phases /statusz shows. Before start().
  void set_profiler(const Profiler* profiler);
  /// Attaches the health monitor: /healthz becomes per-check JSON (503 on a
  /// critical breach) and /statusz gains a health section. Before start();
  /// nullptr (the default) keeps the plain "ok" liveness behaviour.
  void set_health(const HealthMonitor* health);
  void set_status_provider(StatusProvider provider);

  /// Binds, listens, and spawns the serving thread. Fails (with a stable
  /// error code like "serve.bind") rather than throwing when the port is
  /// taken.
  util::Status start() { return server_.start(); }
  /// Stops the serving thread and closes every socket (idempotent).
  void stop() { server_.stop(); }
  bool running() const { return server_.running(); }
  /// The actually-bound port (resolves Options::port == 0); 0 when stopped.
  std::uint16_t port() const { return server_.port(std::size_t{0}); }

  /// The routing core, exposed so tests can exercise handlers without a
  /// socket. Thread-safe.
  net::HttpResponse handle(const net::HttpRequest& request) const;

 private:
  std::string render_metrics() const;
  std::string render_statusz() const;

  std::vector<std::pair<std::string, const Registry*>> registries_;
  const Profiler* profiler_ = nullptr;
  const HealthMonitor* health_ = nullptr;
  mutable util::Mutex provider_mu_;  ///< guards status_provider_ swaps
  StatusProvider status_provider_ MUSTAPLE_GUARDED_BY(provider_mu_);
  // Declared last, so it is destroyed first: the serving worker is joined
  // before the state that handle() reads goes away.
  // SRCLINT-ALLOW(sl_unguarded_mutex_field): stops before handle()'s state
  net::SocketServer server_;
};

}  // namespace mustaple::obs
