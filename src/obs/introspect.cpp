#include "obs/introspect.hpp"

#include <sstream>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/resource.hpp"
#include "util/alloc.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

namespace mustaple::obs {

namespace {

net::SocketServer::Options serving_options(
    const IntrospectionServer::Options& options) {
  net::SocketServer::Options serving;
  serving.bind_address = options.bind_address;
  serving.worker_threads = 1;
  serving.max_connections = IntrospectionServer::kMaxConnections;
  serving.max_request_bytes = IntrospectionServer::kMaxRequestBytes;
  serving.read_timeout_ms = IntrospectionServer::kReadTimeoutMs;
  serving.keep_alive = false;  // every response carries Connection: close
  return serving;
}

}  // namespace

IntrospectionServer::IntrospectionServer()
    : IntrospectionServer(Options()) {}

IntrospectionServer::IntrospectionServer(Options options)
    : server_(serving_options(options)) {
  server_.add_listener("introspect", options.port,
                       [this](const net::HttpRequest& request) {
                         return handle(request);
                       });
}

void IntrospectionServer::add_registry(std::string name,
                                       const Registry* registry) {
  registries_.emplace_back(std::move(name), registry);
}

void IntrospectionServer::set_profiler(const Profiler* profiler) {
  profiler_ = profiler;
}

void IntrospectionServer::set_health(const HealthMonitor* health) {
  health_ = health;
}

void IntrospectionServer::set_status_provider(StatusProvider provider) {
  util::MutexLock lock(provider_mu_);
  status_provider_ = std::move(provider);
}

net::HttpResponse IntrospectionServer::handle(
    const net::HttpRequest& request) const {
  if (request.method != "GET") {
    return net::HttpResponse::make(405, "Method Not Allowed",
                                   util::bytes_of("GET only\n"), "text/plain");
  }
  if (request.path == "/healthz") {
    // Without a monitor attached this stays the PR-7 liveness ping; with
    // one it is a readiness probe: per-check JSON, 503 on critical breach.
    if (health_ == nullptr) {
      return net::HttpResponse::make(200, "OK", util::bytes_of("ok\n"),
                                     "text/plain");
    }
    const std::string body = health_->render_json() + "\n";
    if (health_->critical_breached()) {
      return net::HttpResponse::make(503, "Service Unavailable",
                                     util::bytes_of(body), "application/json");
    }
    return net::HttpResponse::make(200, "OK", util::bytes_of(body),
                                   "application/json");
  }
  if (request.path == "/metrics") {
    return net::HttpResponse::make(200, "OK", util::bytes_of(render_metrics()),
                                   "text/plain; version=0.0.4");
  }
  if (request.path == "/statusz") {
    return net::HttpResponse::make(200, "OK", util::bytes_of(render_statusz()),
                                   "text/plain");
  }
  if (request.path == "/") {
    return net::HttpResponse::make(
        200, "OK",
        util::bytes_of("mustaple introspection\n"
                       "  /metrics  Prometheus exposition\n"
                       "  /healthz  liveness\n"
                       "  /statusz  campaign status\n"),
        "text/plain");
  }
  return net::HttpResponse::make(404, "Not Found",
                                 util::bytes_of("not found\n"), "text/plain");
}

std::string IntrospectionServer::render_metrics() const {
  std::string out;
  for (const auto& [name, registry] : registries_) {
    out += registry->render_prometheus();
  }
  return out;
}

std::string IntrospectionServer::render_statusz() const {
  std::ostringstream out;
  out << "mustaple statusz\n================\n\n";

  const ResourceUsage usage = read_resource_usage();
  out << "process\n";
  out << util::format("  rss_bytes          %llu\n",
                      static_cast<unsigned long long>(usage.rss_bytes));
  out << util::format("  peak_rss_bytes     %llu\n",
                      static_cast<unsigned long long>(usage.peak_rss_bytes));
  out << util::format("  vm_bytes           %llu\n",
                      static_cast<unsigned long long>(usage.vm_bytes));
  out << util::format("  faults             %llu minor / %llu major\n",
                      static_cast<unsigned long long>(usage.minor_faults),
                      static_cast<unsigned long long>(usage.major_faults));
  out << util::format("  cpu_seconds        %.2f user / %.2f system\n",
                      usage.user_cpu_seconds, usage.system_cpu_seconds);

  bool any_alloc = false;
  util::visit_alloc_counters([&](const std::string& name,
                                 const util::AllocCounter& counter) {
    if (!any_alloc) out << "\nallocations (bytes: outstanding / peak / total)\n";
    any_alloc = true;
    out << util::format(
        "  %-18s %llu / %llu / %llu\n", name.c_str(),
        static_cast<unsigned long long>(counter.outstanding_bytes()),
        static_cast<unsigned long long>(counter.peak_outstanding_bytes()),
        static_cast<unsigned long long>(counter.allocated_bytes()));
  });

  if (health_ != nullptr) {
    out << "\nhealth\n";
    std::istringstream lines(health_->render_text());
    for (std::string line; std::getline(lines, line);) {
      out << "  " << line << "\n";
    }
  }

  StatusProvider provider;
  {
    util::MutexLock lock(provider_mu_);
    provider = status_provider_;
  }
  if (provider) {
    const std::string status = provider();
    if (!status.empty()) out << "\n" << status;
  }

  if (profiler_ != nullptr) {
    const std::string profile = profiler_->summary(10);
    if (!profile.empty()) out << "\n" << profile;
  }
  return out.str();
}

}  // namespace mustaple::obs
