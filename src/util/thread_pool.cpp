#include "util/thread_pool.hpp"

#include <atomic>
#include <cstdlib>

namespace mustaple::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  start_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_chunks() {
  const std::function<void(std::size_t, std::size_t)>* job;
  std::size_t count;
  {
    MutexLock lock(mutex_);
    job = job_;
    count = job_count_;
  }
  for (;;) {
    const std::size_t begin = cursor_.fetch_add(kChunk);
    if (begin >= count) return;
    const std::size_t end = begin + kChunk < count ? begin + kChunk : count;
    try {
      (*job)(begin, end);
    } catch (...) {
      MutexLock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      MutexLock lock(mutex_);
      // Explicit predicate loop (not a lambda) so the guarded reads stay
      // visible to the thread-safety analysis.
      while (!(shutdown_ || generation_ != seen_generation)) {
        start_cv_.wait(mutex_);
      }
      if (shutdown_) return;
      seen_generation = generation_;
    }
    run_chunks();
    {
      MutexLock lock(mutex_);
      --workers_running_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  {
    MutexLock lock(mutex_);
    job_ = &fn;
    job_count_ = count;
    cursor_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    workers_running_ = workers_.size();
    ++generation_;
  }
  start_cv_.notify_all();
  run_chunks();  // the calling thread participates
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (workers_running_ != 0) done_cv_.wait(mutex_);
    job_ = nullptr;
    error = first_error_;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for_index(
    std::size_t count, const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(count, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

std::size_t ThreadPool::env_threads(std::size_t fallback) {
  const char* env = std::getenv("MUSTAPLE_SCAN_THREADS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || parsed < 1) return fallback;
  return static_cast<std::size_t>(parsed);
}

}  // namespace mustaple::util
