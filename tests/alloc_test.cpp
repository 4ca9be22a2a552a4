// Allocation budget for a simulated scan probe. Every replaceable global
// operator new/delete form is defined here and forwards to malloc/free, so
// the sanitizer runtimes still see (and check) every block; a relaxed
// atomic counts the news. The budgets catch per-probe work that creeps
// back onto the fan-out path, such as an HTTP serialize-and-reparse, a
// routing key string or a body digest built for every probe.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "measurement/ecosystem.hpp"
#include "measurement/scanner.hpp"
#include "net/event_loop.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // malloc(0) may return nullptr; operator new must not.
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

void* counted_aligned_or_throw(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned(size, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_or_throw(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_or_throw(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mustaple::measurement {
namespace {

// An availability probe (fetch and accumulate, validation off) allocated
// 55 times while each probe still serialized and reparsed its HTTP request;
// with one prepared request per target it allocates about 21 times, at one
// and at four scan threads. Most of what is left is the responder's.
constexpr double kMaxAllocationsPerProbe = 32.0;

TEST(AllocBudget, SimulatedProbeStaysUnderBudget) {
  EcosystemConfig config;
  config.seed = 2018;
  config.responder_count = 64;
  config.alexa_domains = 5000;
  config.certs_per_responder = 1;
  net::EventLoop loop(config.campaign_start - util::Duration::days(1));
  Ecosystem ecosystem(config, loop);
  ScanConfig scan;
  scan.interval = util::Duration::hours(72);
  scan.max_steps = 10;
  scan.validate_responses = false;
  scan.threads = 1;
  HourlyScanner scanner(ecosystem, scan);

  const std::uint64_t before = g_allocations.load();
  scanner.run();
  const std::uint64_t allocations = g_allocations.load() - before;

  const std::uint64_t probes = scanner.progress().probes_done;
  ASSERT_EQ(probes, scanner.progress().targets * net::kRegionCount *
                        scanner.steps().size());
  ASSERT_GT(probes, 0u);
  const double per_probe =
      static_cast<double>(allocations) / static_cast<double>(probes);
  RecordProperty("allocations_per_probe", std::to_string(per_probe));
  std::printf("allocations per probe: %.1f over %llu probes\n", per_probe,
              static_cast<unsigned long long>(probes));
  EXPECT_LE(per_probe, kMaxAllocationsPerProbe);
}

// A validated, linted probe allocated 39.8 times while it hashed its body
// for two shared caches; comparing the body with the last one its target
// returned, and checking only a changed body, brings that to about 35, at
// one and at four scan threads.
constexpr double kMaxAllocationsPerValidatedProbe = 37.0;

TEST(AllocBudget, ValidatedProbeStaysUnderBudget) {
  EcosystemConfig config;
  config.seed = 2018;
  config.responder_count = 64;
  config.alexa_domains = 5000;
  config.certs_per_responder = 4;
  net::EventLoop loop(config.campaign_start - util::Duration::days(1));
  Ecosystem ecosystem(config, loop);
  ScanConfig scan;
  scan.interval = util::Duration::hours(6);
  scan.max_steps = 6;
  scan.threads = 1;
  HourlyScanner scanner(ecosystem, scan);

  const std::uint64_t before = g_allocations.load();
  scanner.run();
  const std::uint64_t allocations = g_allocations.load() - before;

  const std::uint64_t probes = scanner.progress().probes_done;
  ASSERT_GT(probes, 0u);
  ASSERT_GT(scanner.validation_cache_stats().lookups, probes / 2);
  const double per_probe =
      static_cast<double>(allocations) / static_cast<double>(probes);
  RecordProperty("allocations_per_validated_probe", std::to_string(per_probe));
  std::printf("allocations per validated probe: %.1f over %llu probes\n",
              per_probe, static_cast<unsigned long long>(probes));
  EXPECT_LE(per_probe, kMaxAllocationsPerValidatedProbe);
}

}  // namespace
}  // namespace mustaple::measurement
