// Allocation accounting for the campaign-scale memory story. The ROADMAP's
// full-scale item is gated on "peak RSS bounded and reported by obs" —
// which needs to know WHERE the bytes live, not just how many the kernel
// charged the process. Three pieces:
//
//  * AllocCounter — a set of monotone atomic tallies (bytes/calls allocated
//    and freed, plus an outstanding-bytes high-water mark) cheap enough to
//    sit on a container hot path. Conservation law: allocated_bytes -
//    freed_bytes == outstanding() at every quiescent point (asserted in
//    tests at every thread count).
//  * AllocTally — manual accounting for buffers held in plain containers,
//    released wholesale when its owner goes away.
//  * a process-wide named registry (alloc_counter("scan.targets"))
//    so subsystems tally under stable names and exporters (ResourceMonitor,
//    mustaple_bench, /statusz) can walk every subsystem generically.
//
// This is util, not obs: the accounting stays available under
// MUSTAPLE_OBS_OFF; only the obs-layer EXPORT of these numbers compiles
// out. Counting never changes what a
// container stores, so it can never change campaign outputs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace mustaple::util {

/// One subsystem's allocation tallies. All counters are relaxed atomics:
/// totals are exact at quiescent points (barriers, campaign end); the
/// outstanding high-water mark is maintained with a CAS loop so it never
/// loses an update even under contention.
class AllocCounter {
 public:
  void record_alloc(std::size_t bytes) {
    allocated_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    alloc_calls_.fetch_add(1, std::memory_order_relaxed);
    update_peak();
  }
  void record_free(std::size_t bytes) {
    freed_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    free_calls_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t allocated_bytes() const {
    return allocated_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t freed_bytes() const {
    return freed_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t alloc_calls() const {
    return alloc_calls_.load(std::memory_order_relaxed);
  }
  std::uint64_t free_calls() const {
    return free_calls_.load(std::memory_order_relaxed);
  }
  /// Bytes currently live: allocated - freed. Signed-safe: transient
  /// interleavings can make freed read ahead of allocated mid-update, so
  /// clamp at zero rather than wrapping.
  std::uint64_t outstanding_bytes() const {
    const std::uint64_t a = allocated_bytes();
    const std::uint64_t f = freed_bytes();
    return a > f ? a - f : 0;
  }
  /// High-water mark of outstanding_bytes over the counter's lifetime.
  std::uint64_t peak_outstanding_bytes() const {
    return peak_outstanding_.load(std::memory_order_relaxed);
  }

  /// Test/bench support: zero every tally.
  void reset() {
    allocated_bytes_.store(0, std::memory_order_relaxed);
    freed_bytes_.store(0, std::memory_order_relaxed);
    alloc_calls_.store(0, std::memory_order_relaxed);
    free_calls_.store(0, std::memory_order_relaxed);
    peak_outstanding_.store(0, std::memory_order_relaxed);
  }

 private:
  void update_peak() {
    const std::uint64_t now = outstanding_bytes();
    std::uint64_t seen = peak_outstanding_.load(std::memory_order_relaxed);
    while (now > seen && !peak_outstanding_.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> allocated_bytes_{0};
  std::atomic<std::uint64_t> freed_bytes_{0};
  std::atomic<std::uint64_t> alloc_calls_{0};
  std::atomic<std::uint64_t> free_calls_{0};
  std::atomic<std::uint64_t> peak_outstanding_{0};
};

/// Process-wide named counter. The reference stays valid forever (counters
/// are never destroyed); repeated calls with the same name return the same
/// cell. Names follow the subsystem convention used by metrics labels:
/// "scan.targets", "scan.validation_cache", "ca.response_cache", ...
AllocCounter& alloc_counter(const std::string& name);

/// Read-only walk over every registered counter, in name order (so exports
/// are deterministic).
void visit_alloc_counters(
    const std::function<void(const std::string& name, const AllocCounter&)>&
        fn);

/// Test/bench support: reset every registered counter's tallies (the
/// counters themselves stay registered — references remain valid).
void reset_alloc_counters();

/// Manual accounting for buffers allocated through plain containers (the
/// ecosystem's generated DER, the responder's response cache): record(n)
/// charges the counter now, and the tally releases EVERYTHING it charged on
/// destruction, so the conservation law survives subsystems that free en
/// masse in their destructor.
class AllocTally {
 public:
  explicit AllocTally(AllocCounter& counter) : counter_(&counter) {}
  AllocTally(const AllocTally&) = delete;
  AllocTally& operator=(const AllocTally&) = delete;
  ~AllocTally() { release_all(); }

  void record(std::size_t bytes) {
    counter_->record_alloc(bytes);
    total_ += bytes;
  }
  void release(std::size_t bytes) {
    counter_->record_free(bytes);
    total_ -= bytes;
  }
  void release_all() {
    if (total_ > 0) {
      counter_->record_free(total_);
      total_ = 0;
    }
  }
  std::size_t total() const { return total_; }

 private:
  AllocCounter* counter_;
  std::size_t total_ = 0;
};

}  // namespace mustaple::util
