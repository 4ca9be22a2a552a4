#include "obs/flight.hpp"

#include <chrono>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>
#define MUSTAPLE_HAVE_SIGNALS 1
#else
#define MUSTAPLE_HAVE_SIGNALS 0
#endif

#if defined(__GLIBC__)
#include <execinfo.h>
#define MUSTAPLE_HAVE_BACKTRACE 1
#else
#define MUSTAPLE_HAVE_BACKTRACE 0
#endif

namespace mustaple::obs {

namespace {

/// Buffered byte writer built exclusively on write(2) — the only formatting
/// machinery the signal handler is allowed to touch. Nothing here
/// allocates, locks, or calls into stdio/locale.
struct SigWriter {
  explicit SigWriter(int fd) : fd(fd) {}
  ~SigWriter() { flush(); }
  SigWriter(const SigWriter&) = delete;
  SigWriter& operator=(const SigWriter&) = delete;

  void put(char c) {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
  }
  void str(const char* s) {
    while (*s != '\0') put(*s++);
  }
  void u64(std::uint64_t v) {
    char tmp[24];
    int i = 0;
    do {
      tmp[i++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (i > 0) put(tmp[--i]);
  }
  void i64(std::int64_t v) {
    if (v < 0) {
      put('-');
      u64(static_cast<std::uint64_t>(-(v + 1)) + 1);
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }
  void hex(std::uintptr_t v) {
    str("0x");
    char tmp[2 * sizeof(v)];
    int i = 0;
    do {
      tmp[i++] = "0123456789abcdef"[v & 0xF];
      v >>= 4;
    } while (v != 0);
    while (i > 0) put(tmp[--i]);
  }
  /// JSON string literal from a NUL-terminated fixed buffer: quotes and
  /// backslashes escaped, control characters replaced by spaces (a precise
  /// \uXXXX spelling is not worth the formatting code in a crash handler).
  void json_str(const char* s, std::size_t max) {
    put('"');
    for (std::size_t i = 0; i < max && s[i] != '\0'; ++i) {
      const char c = s[i];
      if (c == '"' || c == '\\') {
        put('\\');
        put(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        put(' ');
      } else {
        put(c);
      }
    }
    put('"');
  }
  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;  // nothing a crash handler can do about it
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }

  int fd;
  std::size_t len = 0;
  char buf[512];
};

void copy_trunc(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  if (src != nullptr) {
    for (; i + 1 < cap && src[i] != '\0'; ++i) dst[i] = src[i];
  }
  dst[i] = '\0';
}

/// dir + "/" + name without snprintf (not async-signal-safe). Returns false
/// when it does not fit.
bool sig_path_join(char* out, std::size_t cap, const char* dir,
                   const char* name) {
  std::size_t n = 0;
  for (; dir[n] != '\0'; ++n) {
    if (n + 1 >= cap) return false;
    out[n] = dir[n];
  }
  if (n == 0 || out[n - 1] != '/') {
    if (n + 1 >= cap) return false;
    out[n++] = '/';
  }
  for (std::size_t i = 0; name[i] != '\0'; ++i, ++n) {
    if (n + 1 >= cap) return false;
    out[n] = name[i];
  }
  out[n] = '\0';
  return true;
}

const char* kind_name(FlightRecorder::EventKind kind) {
  switch (kind) {
    case FlightRecorder::EventKind::kLog:
      return "log";
    case FlightRecorder::EventKind::kPhase:
      return "phase";
    case FlightRecorder::EventKind::kHealth:
      return "health";
  }
  return "?";
}

std::uint64_t peak_rss_bytes_now() {
#if MUSTAPLE_HAVE_SIGNALS
  struct rusage ru {};
  if (::getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
  }
#endif
  return 0;
}

#if MUSTAPLE_HAVE_SIGNALS
constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE};
constexpr std::size_t kSignalCount = sizeof(kSignals) / sizeof(kSignals[0]);
struct sigaction g_old_actions[kSignalCount];

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV:
      return "SIGSEGV";
    case SIGABRT:
      return "SIGABRT";
    case SIGBUS:
      return "SIGBUS";
    case SIGFPE:
      return "SIGFPE";
  }
  return "signal";
}
#endif

/// The recorder the handler dumps; set by install(), cleared by uninstall().
std::atomic<FlightRecorder*> g_recorder{nullptr};
/// Re-entrancy latch: a crash inside the dump restores default disposition
/// immediately instead of recursing.
std::atomic<bool> g_in_handler{false};

#if MUSTAPLE_HAVE_SIGNALS
void restore_and_reraise(int sig) {
  for (std::size_t i = 0; i < kSignalCount; ++i) {
    if (kSignals[i] == sig) {
      ::sigaction(sig, &g_old_actions[i], nullptr);
      ::raise(sig);  // delivered (to the saved handler or default) on return
      return;
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void flight_signal_handler(int sig) {
  if (g_in_handler.exchange(true)) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
    return;
  }
  FlightRecorder* recorder = g_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr) {
    recorder->write_postmortem(signal_name(sig), sig);
  }
  restore_and_reraise(sig);
}
#endif

}  // namespace

/// One ring slot. `seq` brackets the payload: idx*2+1 while a writer fills
/// it, idx*2+2 once complete — a reader comparing before/after loads knows
/// whether it copied a consistent record.
struct FlightRecorder::Slot {
  std::atomic<std::uint64_t> seq{0};
  std::uint64_t index = 0;
  std::uint64_t wall_unix_ms = 0;
  std::int64_t sim_unix = kNoSimTime;
  std::uint8_t kind = 0;
  std::uint8_t level = 0;
  char component[24] = {};
  char message[160] = {};
};

FlightRecorder::FlightRecorder(std::size_t capacity) { configure(capacity); }

FlightRecorder::~FlightRecorder() { uninstall(); }

void FlightRecorder::configure(std::size_t capacity) {
  capacity_ = capacity;
  slots_ = capacity_ > 0 ? std::make_unique<Slot[]>(capacity_) : nullptr;
  next_.store(0, std::memory_order_relaxed);
  probe_next_.store(0, std::memory_order_relaxed);
  for (auto& id : probe_ids_) id.store(0, std::memory_order_relaxed);
  for (int b = 0; b < 2; ++b) {
    if (!snap_buf_[b]) snap_buf_[b] = std::make_unique<char[]>(kSnapshotBytes);
    snap_len_[b].store(0, std::memory_order_relaxed);
  }
  snap_active_.store(0, std::memory_order_relaxed);
  crashed_.store(false, std::memory_order_relaxed);
}

void FlightRecorder::record(EventKind kind, Level level, const char* component,
                            const char* message, std::int64_t sim_unix) {
  if (capacity_ == 0) return;
  const std::uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx % capacity_];
  slot.seq.store(idx * 2 + 1, std::memory_order_release);
  slot.index = idx;
  slot.wall_unix_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  slot.sim_unix = sim_unix;
  slot.kind = static_cast<std::uint8_t>(kind);
  slot.level = static_cast<std::uint8_t>(level);
  copy_trunc(slot.component, sizeof(slot.component), component);
  copy_trunc(slot.message, sizeof(slot.message), message);
  slot.seq.store(idx * 2 + 2, std::memory_order_release);
}

void FlightRecorder::note_phase(const char* phase) {
  record(EventKind::kPhase, Level::kInfo, "phase", phase);
}

void FlightRecorder::note_health(const char* check, bool ok,
                                 const char* detail) {
  char message[160];
  std::size_t n = 0;
  const char* prefix = ok ? "recovered: " : "breached: ";
  for (const char* s = prefix; *s != '\0' && n + 1 < sizeof(message); ++s) {
    message[n++] = *s;
  }
  for (const char* s = check; *s != '\0' && n + 1 < sizeof(message); ++s) {
    message[n++] = *s;
  }
  if (detail != nullptr && detail[0] != '\0' && n + 3 < sizeof(message)) {
    message[n++] = ' ';
    message[n++] = '-';
    message[n++] = ' ';
    for (const char* s = detail; *s != '\0' && n + 1 < sizeof(message); ++s) {
      message[n++] = *s;
    }
  }
  message[n] = '\0';
  record(EventKind::kHealth, ok ? Level::kInfo : Level::kError, "health",
         message);
}

void FlightRecorder::note_probe(std::uint64_t probe_id) {
  const std::uint64_t idx = probe_next_.fetch_add(1, std::memory_order_relaxed);
  probe_ids_[idx % kProbeRing].store(probe_id, std::memory_order_relaxed);
}

std::vector<FlightRecorder::Event> FlightRecorder::snapshot() const {
  std::vector<Event> out;
  if (capacity_ == 0) return out;
  const std::uint64_t n = next_.load(std::memory_order_acquire);
  const std::uint64_t count = n < capacity_ ? n : capacity_;
  out.reserve(count);
  for (std::uint64_t idx = n - count; idx < n; ++idx) {
    const Slot& slot = slots_[idx % capacity_];
    const std::uint64_t seq_before = slot.seq.load(std::memory_order_acquire);
    Event event;
    event.index = slot.index;
    event.wall_unix_ms = slot.wall_unix_ms;
    event.sim_unix = slot.sim_unix;
    event.kind = static_cast<EventKind>(slot.kind);
    event.level = static_cast<Level>(slot.level);
    char component[sizeof(Slot::component)];
    char message[sizeof(Slot::message)];
    std::memcpy(component, slot.component, sizeof(component));
    std::memcpy(message, slot.message, sizeof(message));
    component[sizeof(component) - 1] = '\0';
    message[sizeof(message) - 1] = '\0';
    event.component = component;
    event.message = message;
    const std::uint64_t seq_after = slot.seq.load(std::memory_order_acquire);
    event.torn = seq_before != seq_after || seq_before % 2 == 1 ||
                 slot.index != idx;
    out.push_back(std::move(event));
  }
  return out;
}

std::vector<std::uint64_t> FlightRecorder::recent_probe_ids() const {
  std::vector<std::uint64_t> out;
  const std::uint64_t n = probe_next_.load(std::memory_order_relaxed);
  const std::uint64_t count = n < kProbeRing ? n : kProbeRing;
  out.reserve(count);
  for (std::uint64_t idx = n - count; idx < n; ++idx) {
    out.push_back(probe_ids_[idx % kProbeRing].load(std::memory_order_relaxed));
  }
  return out;
}

void FlightRecorder::set_snapshot_json(const std::string& json_object) {
  // Once a crash handler is dumping, the buffers are frozen: the handler
  // read its buffer index exactly once, and nothing may write either side.
  if (crashed_.load(std::memory_order_acquire)) return;
  const int write_side = 1 - snap_active_.load(std::memory_order_acquire);
  const char* src = json_object.c_str();
  std::size_t len = json_object.size();
  if (len >= kSnapshotBytes) {
    static const char kTruncated[] = "{\"truncated\":true}";
    src = kTruncated;
    len = sizeof(kTruncated) - 1;
  }
  std::memcpy(snap_buf_[write_side].get(), src, len);
  snap_len_[write_side].store(len, std::memory_order_release);
  snap_active_.store(write_side, std::memory_order_release);
}

bool FlightRecorder::install(const std::string& artifact_dir) {
#if MUSTAPLE_HAVE_SIGNALS
  if (artifact_dir.empty() || artifact_dir.size() + 1 >= sizeof(dir_)) {
    return false;
  }
  copy_trunc(dir_, sizeof(dir_), artifact_dir.c_str());
#if MUSTAPLE_HAVE_BACKTRACE
  // The first backtrace() loads the unwinder through the dynamic loader,
  // which calls malloc; do it here, so a crash handler's call finds it
  // loaded and stays async-signal-safe.
  void* warm_up[1];
  (void)::backtrace(warm_up, 1);
#endif
  FlightRecorder* expected_self = this;
  if (g_recorder.exchange(this, std::memory_order_acq_rel) == nullptr ||
      !installed_.load(std::memory_order_acquire)) {
    struct sigaction action {};
    action.sa_handler = flight_signal_handler;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    for (std::size_t i = 0; i < kSignalCount; ++i) {
      ::sigaction(kSignals[i], &action, &g_old_actions[i]);
    }
  }
  (void)expected_self;
  installed_.store(true, std::memory_order_release);
  return true;
#else
  (void)artifact_dir;
  return false;
#endif
}

void FlightRecorder::uninstall() {
#if MUSTAPLE_HAVE_SIGNALS
  if (!installed_.exchange(false)) return;
  FlightRecorder* self = this;
  if (g_recorder.compare_exchange_strong(self, nullptr,
                                         std::memory_order_acq_rel)) {
    for (std::size_t i = 0; i < kSignalCount; ++i) {
      ::sigaction(kSignals[i], &g_old_actions[i], nullptr);
    }
  }
#endif
}

void FlightRecorder::write_postmortem(const char* reason, int signal_number) {
#if MUSTAPLE_HAVE_SIGNALS
  if (dir_[0] == '\0') return;
  crashed_.store(true, std::memory_order_release);
  void* frames[64];
  int frame_count = 0;
#if MUSTAPLE_HAVE_BACKTRACE
  frame_count = ::backtrace(frames, 64);
#endif
  char path[sizeof(dir_) + 32];
  if (sig_path_join(path, sizeof(path), dir_, "postmortem.txt")) {
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dump_text(fd, reason, signal_number, frames, frame_count);
      ::close(fd);
    }
  }
  if (sig_path_join(path, sizeof(path), dir_, "postmortem.json")) {
    const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dump_json(fd, reason, signal_number, frames, frame_count);
      ::close(fd);
    }
  }
  // A manual dump (tests, operator request) must not freeze the snapshot
  // feed for the rest of the process's life.
  if (signal_number == 0) crashed_.store(false, std::memory_order_release);
#else
  (void)reason;
  (void)signal_number;
#endif
}

#if MUSTAPLE_HAVE_SIGNALS

void FlightRecorder::dump_text(int fd, const char* reason, int signal_number,
                               void* const* frames, int frame_count) {
  SigWriter w(fd);
  w.str("mustaple postmortem (flight recorder)\n");
  w.str("reason: ");
  w.str(reason != nullptr ? reason : "?");
  w.str("\nsignal: ");
  w.u64(static_cast<std::uint64_t>(signal_number));
  w.str("\nevents_recorded: ");
  w.u64(recorded());
  w.str(" (dropped ");
  w.u64(dropped());
  w.str(")\npeak_rss_bytes: ");
  w.u64(peak_rss_bytes_now());
  w.str("\nrecent_probe_ids:");
  const std::uint64_t pn = probe_next_.load(std::memory_order_relaxed);
  const std::uint64_t pc = pn < kProbeRing ? pn : kProbeRing;
  for (std::uint64_t i = pn - pc; i < pn; ++i) {
    w.put(' ');
    w.u64(probe_ids_[i % kProbeRing].load(std::memory_order_relaxed));
  }
  w.str("\n--- events (oldest first) ---\n");
  const std::uint64_t n = next_.load(std::memory_order_acquire);
  const std::uint64_t count =
      capacity_ == 0 ? 0 : (n < capacity_ ? n : capacity_);
  for (std::uint64_t idx = n - count; idx < n; ++idx) {
    const Slot& slot = slots_[idx % capacity_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    w.put('[');
    w.u64(slot.index);
    w.str("] wall_unix_ms=");
    w.u64(slot.wall_unix_ms);
    if (slot.sim_unix != kNoSimTime) {
      w.str(" sim_unix=");
      w.i64(slot.sim_unix);
    }
    w.put(' ');
    w.str(to_string(static_cast<Level>(slot.level)));
    w.put(' ');
    w.str(kind_name(static_cast<EventKind>(slot.kind)));
    w.str(" [");
    std::size_t i = 0;
    for (; i < sizeof(slot.component) - 1 && slot.component[i] != '\0'; ++i) {
      w.put(slot.component[i]);
    }
    w.str("] ");
    for (i = 0; i < sizeof(slot.message) - 1 && slot.message[i] != '\0'; ++i) {
      w.put(slot.message[i]);
    }
    if (seq % 2 == 1 || slot.index != idx) w.str(" (torn)");
    w.put('\n');
  }
  w.str("--- backtrace ---\n");
  w.flush();
#if MUSTAPLE_HAVE_BACKTRACE
  if (frame_count > 0) ::backtrace_symbols_fd(frames, frame_count, fd);
#else
  (void)frames;
  (void)frame_count;
#endif
}

void FlightRecorder::dump_json(int fd, const char* reason, int signal_number,
                               void* const* frames, int frame_count) {
  SigWriter w(fd);
  w.str("{\"schema\":\"mustaple-postmortem/1\",\"reason\":");
  char reason_buf[64];
  copy_trunc(reason_buf, sizeof(reason_buf), reason != nullptr ? reason : "?");
  w.json_str(reason_buf, sizeof(reason_buf));
  w.str(",\"signal\":");
  w.u64(static_cast<std::uint64_t>(signal_number));
  w.str(",\"recorded\":");
  w.u64(recorded());
  w.str(",\"dropped\":");
  w.u64(dropped());
  w.str(",\"peak_rss_bytes\":");
  w.u64(peak_rss_bytes_now());
  w.str(",\"probe_ids\":[");
  const std::uint64_t pn = probe_next_.load(std::memory_order_relaxed);
  const std::uint64_t pc = pn < kProbeRing ? pn : kProbeRing;
  for (std::uint64_t i = pn - pc; i < pn; ++i) {
    if (i != pn - pc) w.put(',');
    w.u64(probe_ids_[i % kProbeRing].load(std::memory_order_relaxed));
  }
  w.str("],\"events\":[");
  const std::uint64_t n = next_.load(std::memory_order_acquire);
  const std::uint64_t count =
      capacity_ == 0 ? 0 : (n < capacity_ ? n : capacity_);
  for (std::uint64_t idx = n - count; idx < n; ++idx) {
    const Slot& slot = slots_[idx % capacity_];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    if (idx != n - count) w.put(',');
    w.str("{\"index\":");
    w.u64(slot.index);
    w.str(",\"wall_unix_ms\":");
    w.u64(slot.wall_unix_ms);
    w.str(",\"sim_unix\":");
    if (slot.sim_unix != kNoSimTime) {
      w.i64(slot.sim_unix);
    } else {
      w.str("null");
    }
    w.str(",\"kind\":\"");
    w.str(kind_name(static_cast<EventKind>(slot.kind)));
    w.str("\",\"level\":\"");
    w.str(to_string(static_cast<Level>(slot.level)));
    w.str("\",\"component\":");
    w.json_str(slot.component, sizeof(slot.component));
    w.str(",\"message\":");
    w.json_str(slot.message, sizeof(slot.message));
    w.str(",\"torn\":");
    w.str(seq % 2 == 1 || slot.index != idx ? "true" : "false");
    w.put('}');
  }
  w.str("],\"snapshot\":");
  const int side = snap_active_.load(std::memory_order_acquire);
  const std::size_t snap_len = snap_len_[side].load(std::memory_order_acquire);
  if (snap_len > 0) {
    w.flush();
    std::size_t off = 0;
    while (off < snap_len) {
      const ssize_t wrote =
          ::write(fd, snap_buf_[side].get() + off, snap_len - off);
      if (wrote <= 0) break;
      off += static_cast<std::size_t>(wrote);
    }
  } else {
    w.str("null");
  }
  w.str(",\"backtrace\":[");
  for (int i = 0; i < frame_count; ++i) {
    if (i != 0) w.put(',');
    w.put('"');
    w.hex(reinterpret_cast<std::uintptr_t>(frames[i]));
    w.put('"');
  }
  w.str("]}\n");
}

#else  // !MUSTAPLE_HAVE_SIGNALS

void FlightRecorder::dump_text(int, const char*, int, void* const*, int) {}
void FlightRecorder::dump_json(int, const char*, int, void* const*, int) {}

#endif  // MUSTAPLE_HAVE_SIGNALS

FlightRecorder& default_flight_recorder() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightLogSink::write(const LogRecord& record) {
  if (record.level < min_level_) return;
  std::string message = record.message;
  for (const Field& f : record.fields) {
    message += ' ';
    message += f.key;
    message += '=';
    message += f.value;
  }
  recorder_->record(FlightRecorder::EventKind::kLog, record.level,
                    record.component.c_str(), message.c_str(),
                    record.sim_time ? record.sim_time->unix_seconds
                                    : FlightRecorder::kNoSimTime);
}

}  // namespace mustaple::obs
