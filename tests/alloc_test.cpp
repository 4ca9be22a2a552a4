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
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "ca/responder.hpp"
#include "measurement/ecosystem.hpp"
#include "measurement/scanner.hpp"
#include "net/event_loop.hpp"
#include "ocsp/request.hpp"
#include "util/base64.hpp"

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
// 55 times while each probe still serialized and reparsed its HTTP request,
// and 21.1 times with one prepared request per target, most of them the
// on-demand responders' (an owning request parse, a response assembled,
// signed and re-encoded). Answering from the request's views in one
// Writer brings it to 2.9.
constexpr double kMaxAllocationsPerProbe = 3.5;

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
// for two shared caches, and 35.1 times once it compared the body with the
// last one its target returned and checked only a changed body. With the
// responders answering in one pass it allocates 14.2 times; most of what
// is left is the owning parse and lint of each changed body.
constexpr double kMaxAllocationsPerValidatedProbe = 15.0;

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

// One on-demand OcspResponder::handle() in serve_sign's shape: a sim CA
// with 64 leaves, the default profile answering on demand, and a 16-byte
// nonce per request, over POST and over a GET whose path is percent-encoded
// standard base64. Owning request parses and a response assembled, signed
// and re-encoded cost 46 (POST) and 49.7 (GET) allocations; reading the
// request through views and writing the answer in one Writer leaves 4.5
// and 5.5: the answer buffer (trimmed again when it comes out shorter than
// the largest answer so far), the signature, the response's header entry
// and its content-type value, and for a GET the decoded request.
constexpr double kMaxAllocationsPerPostHandle = 5.5;
constexpr double kMaxAllocationsPerGetHandle = 6.5;

TEST(AllocBudget, OnDemandHandleStaysUnderBudget) {
  const util::SimTime now = util::make_time(2018, 5, 1, 12);
  util::Rng rng(2018);
  ca::CertificateAuthority authority(
      "AllocCA", now - util::Duration::days(2000), rng);
  ca::ResponderBehavior behavior;
  behavior.pre_generate = false;
  ca::OcspResponder responder(authority, behavior, "ocsp.alloc.example", rng);

  std::vector<net::HttpRequest> posts;
  std::vector<net::HttpRequest> gets;
  for (int i = 0; i < 64; ++i) {
    ca::LeafRequest leaf;
    leaf.domain = "alloc" + std::to_string(i) + ".example";
    leaf.not_before = now - util::Duration::days(30);
    const auto id = ocsp::CertId::for_certificate(
        authority.issue(leaf, rng), authority.intermediate_cert());
    ocsp::OcspRequest request = ocsp::OcspRequest::single(id);
    request.set_nonce(util::Bytes(16, static_cast<std::uint8_t>(i)));
    net::HttpRequest post;
    post.method = "POST";
    post.body = request.encode_der();
    posts.push_back(post);
    net::HttpRequest get;
    get.method = "GET";
    get.path = "/";
    for (const char c : util::base64_encode(post.body)) {
      if (c == '+') {
        get.path += "%2B";
      } else if (c == '/') {
        get.path += "%2F";
      } else if (c == '=') {
        get.path += "%3D";
      } else {
        get.path += c;
      }
    }
    gets.push_back(get);
  }

  const auto per_handle = [&](const std::vector<net::HttpRequest>& requests) {
    std::size_t answered = 0;
    const std::uint64_t before = g_allocations.load();
    for (int round = 0; round < 4; ++round) {
      for (const auto& request : requests) {
        const net::HttpResponse response =
            responder.handle(request, now, net::Region::kVirginia);
        answered += response.body.size() > 100 ? 1 : 0;
      }
    }
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(answered, 4 * requests.size());
    return static_cast<double>(allocations) /
           static_cast<double>(4 * requests.size());
  };
  per_handle(posts);  // warm-up: capacity hints and first-use statics
  const double post = per_handle(posts);
  const double get = per_handle(gets);
  RecordProperty("allocations_per_post_handle", std::to_string(post));
  RecordProperty("allocations_per_get_handle", std::to_string(get));
  std::printf("allocations per on-demand handle: POST %.1f, GET %.1f\n", post,
              get);
  EXPECT_LE(post, kMaxAllocationsPerPostHandle);
  EXPECT_LE(get, kMaxAllocationsPerGetHandle);
}

}  // namespace
}  // namespace mustaple::measurement
