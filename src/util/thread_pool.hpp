// A small persistent worker pool for barrier-style index fan-out. The
// hourly scanner's per-step fan-out runs thousands of independent scan
// targets per simulated step across hundreds-to-thousands of steps; spawning
// threads per step would dominate small steps, so the pool keeps its
// workers parked on a condition variable between jobs.
//
// Scheduling is dynamic (workers grab contiguous index chunks from an
// atomic cursor), which means WHICH thread runs a given index is
// nondeterministic — callers that need deterministic output must make the
// per-index work free of order-dependent side effects and do any
// order-sensitive accumulation after the fan-out returns (see DESIGN.md
// "Deterministic parallel scan campaigns"). The chunk boundaries are fixed
// by the index count alone, at every pool width.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace mustaple::util {

class ThreadPool {
 public:
  /// Indices per chunk: large enough to amortize the atomic cursor (and a
  /// caller's per-chunk bookkeeping), small enough to balance uneven
  /// per-index cost (e.g. scan targets whose changed bodies re-verify).
  static constexpr std::size_t kChunk = 16;

  /// Spawns `threads - 1` workers; the caller's thread participates in
  /// every job, so `threads` is total parallelism. threads <= 1 spawns
  /// nothing and the calling thread runs every chunk in order.
  explicit ThreadPool(std::size_t threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs fn(begin, end) once per chunk of [0, count) — [0, kChunk),
  /// [kChunk, 2 * kChunk), ..., the last one possibly shorter — and returns
  /// when all calls have completed (a barrier). The first exception thrown
  /// by fn is rethrown on the calling thread after the barrier; it ends only
  /// the chunk that threw, other chunks still run.
  void parallel_for_chunks(
      std::size_t count,
      const std::function<void(std::size_t begin, std::size_t end)>& fn);

  /// fn(i) for every i in [0, count), chunk by chunk: a throw skips the
  /// remaining indices of its own chunk and is rethrown after the barrier.
  void parallel_for_index(std::size_t count,
                          const std::function<void(std::size_t)>& fn);

  /// Suggested pool width: the MUSTAPLE_SCAN_THREADS environment variable
  /// when set to a positive integer, otherwise `fallback`.
  static std::size_t env_threads(std::size_t fallback = 1);

 private:
  void worker_loop();
  void run_chunks();

  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar start_cv_;
  CondVar done_cv_;
  const std::function<void(std::size_t, std::size_t)>* job_
      MUSTAPLE_GUARDED_BY(mutex_) = nullptr;
  std::size_t job_count_ MUSTAPLE_GUARDED_BY(mutex_) = 0;
  std::uint64_t generation_ MUSTAPLE_GUARDED_BY(mutex_) = 0;
  std::size_t workers_running_ MUSTAPLE_GUARDED_BY(mutex_) = 0;
  bool shutdown_ MUSTAPLE_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ MUSTAPLE_GUARDED_BY(mutex_);

  std::atomic<std::size_t> cursor_{0};
};

}  // namespace mustaple::util
