#include "net/socket_server.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include "util/hash.hpp"
#include "util/strings.hpp"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#define MUSTAPLE_HAVE_EPOLL 1
#else
#define MUSTAPLE_HAVE_EPOLL 0
#endif

namespace mustaple::net {

namespace {

using util::Bytes;

// epoll_event.data.u64 tags: 0 is the worker's wake eventfd, 1..listener
// count are listen sockets (index + 1), and anything larger is a Connection
// pointer (heap addresses are always far above the listener count).
constexpr std::uint64_t kWakeTag = 0;
constexpr std::uint64_t kListenTagBase = 1;

constexpr std::size_t kHeadSepLen = 4;  // "\r\n\r\n"

/// Finds "\r\n\r\n" in [begin, end); returns npos when absent.
std::size_t find_head_end(const std::uint8_t* data, std::size_t begin,
                          std::size_t end) {
  if (end < begin + kHeadSepLen) return std::string::npos;
  static constexpr std::uint8_t kSep[kHeadSepLen] = {'\r', '\n', '\r', '\n'};
  const std::uint8_t* hit = static_cast<const std::uint8_t*>(
      ::memmem(data + begin, end - begin, kSep, kHeadSepLen));
  if (hit == nullptr) return std::string::npos;
  return static_cast<std::size_t>(hit - data);
}

HttpResponse plain_response(int status, const char* reason,
                            const std::string& body) {
  return HttpResponse::make(status, reason, util::bytes_of(body),
                            "text/plain");
}

}  // namespace

struct SocketServer::Connection {
  int fd = -1;
  std::size_t listener = 0;  ///< index into listeners_ (selects the handler)
  Bytes in;
  std::size_t in_off = 0;  ///< consumed prefix of `in` (compacted lazily)
  Bytes out;
  std::size_t out_off = 0;
  bool close_after_flush = false;
  bool want_write = false;  ///< EPOLLOUT currently armed
  std::chrono::steady_clock::time_point deadline{};
};

struct SocketServer::Worker {
  std::thread thread;
  int epoll_fd = -1;
  int wake_fd = -1;
  std::vector<int> listen_fds;  ///< one per listener, SO_REUSEPORT siblings
  std::vector<std::unique_ptr<Connection>> connections;
};

SocketServer::SocketServer() : SocketServer(Options()) {}

SocketServer::SocketServer(Options options) : options_(std::move(options)) {}

SocketServer::~SocketServer() { stop(); }

std::size_t SocketServer::add_listener(std::string name, std::uint16_t port,
                                       WireHandler handler) {
  auto listener = std::make_unique<Listener>();
  listener->name = std::move(name);
  listener->requested_port = port;
  listener->handler = std::move(handler);
  listeners_.push_back(std::move(listener));
  return listeners_.size() - 1;
}

std::uint16_t SocketServer::port(std::size_t index) const {
  if (index >= listeners_.size()) return 0;
  return listeners_[index]->bound_port.load(std::memory_order_acquire);
}

std::uint16_t SocketServer::port(const std::string& name) const {
  for (const auto& listener : listeners_) {
    if (listener->name == name) {
      return listener->bound_port.load(std::memory_order_acquire);
    }
  }
  return 0;
}

SocketServerStats SocketServer::stats() const {
  SocketServerStats out;
  out.connections_accepted = accepted_.load(std::memory_order_relaxed);
  out.connections_rejected = rejected_.load(std::memory_order_relaxed);
  out.connections_closed = closed_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.responses_400 = r400_.load(std::memory_order_relaxed);
  out.responses_408 = r408_.load(std::memory_order_relaxed);
  out.responses_431 = r431_.load(std::memory_order_relaxed);
  out.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  out.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  return out;
}

#if MUSTAPLE_HAVE_EPOLL

util::Status SocketServer::start() {
  if (running()) return util::Status::success();
  if (listeners_.empty()) {
    return util::Status::failure("serve.no_listeners",
                                 "add_listener before start");
  }

  std::size_t worker_count = options_.worker_threads;
  if (worker_count == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    worker_count = std::min<std::size_t>(4, hw == 0 ? 1 : hw);
  }

  struct in_addr bind_addr {};
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &bind_addr) != 1) {
    return util::Status::failure("serve.bad_address", options_.bind_address);
  }

  workers_.clear();
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }

  auto fail = [this](const char* code, const std::string& detail) {
    for (auto& worker : workers_) close_worker_fds(*worker);
    workers_.clear();
    for (auto& listener : listeners_) {
      listener->bound_port.store(0, std::memory_order_release);
    }
    return util::Status::failure(code, detail);
  };

  // Bind every listener on every worker. SO_REUSEPORT makes the kernel
  // spread incoming connections across the sibling sockets — one accept
  // queue per worker, no shared lock. For an ephemeral request (port 0) the
  // first worker's bind resolves the port and the siblings reuse it.
  const int one = 1;
  for (std::size_t li = 0; li < listeners_.size(); ++li) {
    Listener& listener = *listeners_[li];
    struct sockaddr_in addr {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(listener.requested_port);
    addr.sin_addr = bind_addr;
    auto* sa = reinterpret_cast<struct sockaddr*>(&addr);
    socklen_t addr_len = sizeof(addr);
    if (listener.requested_port != 0) {
      // SO_REUSEPORT alone would let the siblings join a group that another
      // server of the same user already holds on this port, silently
      // splitting its connections. An exclusive probe bind (SO_REUSEADDR
      // only, so a previous run's TIME_WAIT does not block a restart) makes
      // that a bind failure.
      const int probe = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (probe < 0) return fail("serve.socket", std::strerror(errno));
      ::setsockopt(probe, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      const bool taken = ::bind(probe, sa, addr_len) != 0;
      const int bind_errno = errno;
      ::close(probe);
      if (taken) {
        return fail("serve.bind",
                    listener.name + ": " + std::strerror(bind_errno));
      }
    }
    for (std::size_t w = 0; w < worker_count; ++w) {
      const int fd =
          ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) return fail("serve.socket", std::strerror(errno));
      workers_[w]->listen_fds.push_back(fd);
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
        return fail("serve.reuseport", std::strerror(errno));
      }
      if (::bind(fd, sa, addr_len) != 0) {
        return fail("serve.bind",
                    listener.name + ": " + std::strerror(errno));
      }
      // Reads the kernel-assigned port back into addr for the siblings.
      if (addr.sin_port == 0 && ::getsockname(fd, sa, &addr_len) != 0) {
        return fail("serve.getsockname", std::strerror(errno));
      }
      if (::listen(fd, options_.listen_backlog) != 0) {
        return fail("serve.listen",
                    listener.name + ": " + std::strerror(errno));
      }
    }
    listener.bound_port.store(ntohs(addr.sin_port), std::memory_order_release);
  }

  for (auto& worker : workers_) {
    worker->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->wake_fd < 0 || worker->epoll_fd < 0) {
      return fail("serve.epoll", std::strerror(errno));
    }
    struct epoll_event ev {};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->wake_fd, &ev);
    for (std::size_t li = 0; li < worker->listen_fds.size(); ++li) {
      // Level-triggered accept: with SO_REUSEPORT each ready connection
      // lands in exactly one sibling's queue, and level semantics mean a
      // burst never strands queued connections behind a missed edge.
      ev.events = EPOLLIN;
      ev.data.u64 = kListenTagBase + li;
      ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->listen_fds[li],
                  &ev);
    }
  }

  running_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    worker->thread = std::thread([this, w] { serve_loop(*w); });
  }
  return util::Status::success();
}

void SocketServer::stop() {
  if (!running()) {
    // start() may have failed mid-way; nothing to join, nothing open.
    return;
  }
  running_.store(false, std::memory_order_release);
  const std::uint64_t one = 1;
  for (auto& worker : workers_) {
    if (worker->wake_fd >= 0) {
      [[maybe_unused]] const auto n =
          ::write(worker->wake_fd, &one, sizeof(one));
    }
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    close_worker_fds(*worker);
  }
  workers_.clear();
  for (auto& listener : listeners_) {
    listener->bound_port.store(0, std::memory_order_release);
  }
}

void SocketServer::close_worker_fds(Worker& worker) {
  for (const auto& conn : worker.connections) {
    if (conn->fd >= 0) ::close(conn->fd);
    closed_.fetch_add(1, std::memory_order_relaxed);
  }
  worker.connections.clear();
  for (const int fd : worker.listen_fds) {
    if (fd >= 0) ::close(fd);
  }
  worker.listen_fds.clear();
  if (worker.epoll_fd >= 0) ::close(worker.epoll_fd);
  if (worker.wake_fd >= 0) ::close(worker.wake_fd);
  worker.epoll_fd = worker.wake_fd = -1;
}

void SocketServer::serve_loop(Worker& worker) {
  std::array<struct epoll_event, 64> events{};
  while (running_.load(std::memory_order_acquire)) {
    // Tight polls while connections are pending keep the deadline sweep
    // responsive; an idle worker wakes every 500 ms.
    const int timeout_ms = worker.connections.empty() ? 500 : 50;
    const int n = ::epoll_wait(worker.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) continue;  // running_ re-checked by the loop
      if (tag >= kListenTagBase &&
          tag < kListenTagBase + worker.listen_fds.size()) {
        accept_ready(worker, tag - kListenTagBase);
        continue;
      }
      auto* conn = reinterpret_cast<Connection*>(tag);
      if (!connection_ready(worker, *conn, events[i].events)) {
        close_connection(worker, *conn);
      }
    }
    sweep_expired(worker);
  }
}

void SocketServer::accept_ready(Worker& worker, std::size_t listener_index) {
  for (;;) {
    const int fd = ::accept4(worker.listen_fds[listener_index], nullptr,
                             nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (drained) or transient error
    if (worker.connections.size() >= options_.max_connections) {
      ::close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->listener = listener_index;
    conn->deadline = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(options_.read_timeout_ms);
    struct epoll_event ev {};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.u64 = reinterpret_cast<std::uint64_t>(conn.get());
    if (::epoll_ctl(worker.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    worker.connections.push_back(std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool SocketServer::connection_ready(Worker& worker, Connection& conn,
                                    std::uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) return false;

  if ((events & EPOLLIN) != 0) {
    std::uint8_t buf[16384];
    bool peer_closed = false;
    for (;;) {  // edge-triggered: drain to EAGAIN
      const ssize_t got = ::read(conn.fd, buf, sizeof(buf));
      if (got > 0) {
        conn.in.insert(conn.in.end(), buf, buf + got);
        bytes_in_.fetch_add(static_cast<std::uint64_t>(got),
                            std::memory_order_relaxed);
        continue;
      }
      if (got == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    if (!drain_requests(conn)) return false;
    if (peer_closed) {
      // Half-close: answer what was pipelined, then close after the flush.
      if (conn.out_off >= conn.out.size()) return false;
      conn.close_after_flush = true;
    }
  }

  if (!flush_ready(worker, conn)) return false;
  update_interest(worker, conn);
  return true;
}

bool SocketServer::drain_requests(Connection& conn) {
  bool progressed = false;
  while (!conn.close_after_flush) {
    const std::size_t pending = conn.in.size() - conn.in_off;
    const std::size_t head_end =
        find_head_end(conn.in.data(), conn.in_off, conn.in.size());
    if (head_end == std::string::npos) {
      // No terminator yet: an unterminated head past the cap is rejected
      // before any parse.
      if (pending > options_.max_request_bytes) {
        queue_response(conn,
                       plain_response(431, "Request Header Fields Too Large",
                                      "request too large\n"),
                       /*close_after=*/true);
        r431_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
    }
    const std::size_t head_len = head_end + kHeadSepLen - conn.in_off;
    if (head_len > options_.max_request_bytes) {
      queue_response(conn,
                     plain_response(431, "Request Header Fields Too Large",
                                    "request too large\n"),
                     /*close_after=*/true);
      r431_.fetch_add(1, std::memory_order_relaxed);
      break;
    }

    // Parse the head slice alone, in place: HttpRequest::parse treats
    // everything after CRLFCRLF as body, so pipelined requests must be
    // framed here and the body carved out by Content-Length.
    auto parsed = HttpRequest::parse(
        util::BytesView(conn.in.data() + conn.in_off, head_len));
    if (!parsed.ok()) {
      queue_response(
          conn,
          plain_response(400, "Bad Request",
                         parsed.error().to_string() + "\n"),
          /*close_after=*/true);
      r400_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    HttpRequest request = std::move(parsed).take();

    std::size_t body_len = 0;
    const std::string* declared = request.headers.find("content-length");
    if (declared != nullptr && !declared->empty()) {
      const auto length = parse_content_length(*declared);
      if (!length) {
        queue_response(
            conn,
            plain_response(400, "Bad Request",
                           "bad content-length: " + *declared + "\n"),
            /*close_after=*/true);
        r400_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      body_len = *length;
    }
    if (head_len + body_len > options_.max_request_bytes) {
      queue_response(conn,
                     plain_response(431, "Request Header Fields Too Large",
                                    "request too large\n"),
                     /*close_after=*/true);
      r431_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (pending < head_len + body_len) break;  // body still arriving

    request.body.assign(
        conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_off + head_len),
        conn.in.begin() +
            static_cast<std::ptrdiff_t>(conn.in_off + head_len + body_len));
    conn.in_off += head_len + body_len;
    progressed = true;

    const std::string* connection = request.headers.find("connection");
    const bool client_close =
        connection != nullptr && util::equals_ignore_case(*connection, "close");
    HttpResponse response = listeners_[conn.listener]->handler(request);
    requests_.fetch_add(1, std::memory_order_relaxed);
    queue_response(conn, std::move(response),
                   /*close_after=*/client_close || !options_.keep_alive);
  }

  if (progressed) {
    // The connection made request progress: fresh deadline window, and the
    // consumed prefix is compacted so a long-lived keep-alive connection
    // does not grow its buffer without bound.
    conn.deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(options_.read_timeout_ms);
    if (conn.in_off == conn.in.size()) {
      conn.in.clear();
      conn.in_off = 0;
    } else if (conn.in_off > 4096) {
      conn.in.erase(conn.in.begin(),
                    conn.in.begin() + static_cast<std::ptrdiff_t>(conn.in_off));
      conn.in_off = 0;
    }
  }
  return true;
}

void SocketServer::queue_response(Connection& conn, HttpResponse response,
                                  bool close_after) {
  if (close_after || conn.close_after_flush) {
    response.headers.set("Connection", "close");
    conn.close_after_flush = true;
  } else {
    response.headers.set("Connection", "keep-alive");
  }
  response.serialize_to(conn.out);
}

bool SocketServer::flush_ready(Worker& worker, Connection& conn) {
  (void)worker;
  while (conn.out_off < conn.out.size()) {
    const ssize_t sent = ::write(conn.fd, conn.out.data() + conn.out_off,
                                 conn.out.size() - conn.out_off);
    if (sent > 0) {
      conn.out_off += static_cast<std::size_t>(sent);
      bytes_out_.fetch_add(static_cast<std::uint64_t>(sent),
                           std::memory_order_relaxed);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;  // retry later
    if (errno == EINTR) continue;
    return false;
  }
  if (conn.out_off > 0) {
    conn.out.clear();
    conn.out_off = 0;
  }
  return !conn.close_after_flush;  // fully flushed: close if marked
}

void SocketServer::update_interest(Worker& worker, Connection& conn) {
  const bool want_write = conn.out_off < conn.out.size();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  struct epoll_event ev {};
  ev.events = EPOLLIN | EPOLLET;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.u64 = reinterpret_cast<std::uint64_t>(&conn);
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void SocketServer::close_connection(Worker& worker, Connection& conn) {
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  const auto it = std::find_if(
      worker.connections.begin(), worker.connections.end(),
      [&](const std::unique_ptr<Connection>& c) { return c.get() == &conn; });
  if (it != worker.connections.end()) worker.connections.erase(it);
}

void SocketServer::sweep_expired(Worker& worker) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<Connection*> expired;
  for (const auto& conn : worker.connections) {
    if (now >= conn->deadline) expired.push_back(conn.get());
  }
  for (Connection* conn : expired) {
    if (conn->out_off < conn->out.size()) {
      // Stalled writer: it had its window to drain the response.
      close_connection(worker, *conn);
    } else if (conn->in.size() > conn->in_off) {
      // Mid-request stall (slow loris): answer 408, close after the flush.
      queue_response(*conn,
                     plain_response(408, "Request Timeout", "timed out\n"),
                     /*close_after=*/true);
      r408_.fetch_add(1, std::memory_order_relaxed);
      conn->deadline = now + std::chrono::milliseconds(options_.read_timeout_ms);
      if (!flush_ready(worker, *conn)) {
        close_connection(worker, *conn);
      } else {
        update_interest(worker, *conn);
      }
    } else {
      // Idle connection (nothing sent yet, or keep-alive between
      // requests): close silently, nothing owed.
      close_connection(worker, *conn);
    }
  }
}

#else  // !MUSTAPLE_HAVE_EPOLL

util::Status SocketServer::start() {
  return util::Status::failure("serve.unsupported",
                               "epoll server requires Linux");
}
// start() never succeeds here, so the private event-loop members are never
// called and need no definitions.
void SocketServer::stop() {}

#endif  // MUSTAPLE_HAVE_EPOLL

WireHandler ResponseCache::wrap(WireHandler inner,
                                std::function<std::uint64_t()> epoch) {
  return [this, inner = std::move(inner),
          epoch = std::move(epoch)](const HttpRequest& request) {
    const std::uint64_t now_epoch = epoch ? epoch() : 0;
    std::uint64_t key = util::fnv1a64(request.method);
    key = util::hash_combine(key, util::fnv1a64(request.path));
    key = util::hash_combine(key, util::fnv1a64(request.body));
    key = util::hash_combine(key, now_epoch);
    if (auto hit = cache_.lookup(key)) {
      // Verify full identity, not just the 64-bit key.
      if (hit->method == request.method && hit->path == request.path &&
          hit->body == request.body && hit->epoch == now_epoch) {
        return hit->response;
      }
      cache_.note_collision(key);
    }
    HttpResponse response = inner(request);
    Entry entry;
    entry.method = request.method;
    entry.path = request.path;
    entry.body = request.body;
    entry.epoch = now_epoch;
    entry.response = response;
    cache_.insert(key, std::move(entry));
    return response;
  };
}

}  // namespace mustaple::net
