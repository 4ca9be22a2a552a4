// SHA-256 (FIPS 180-4), implemented from scratch. Used for certificate
// fingerprints, OCSP CertID hashes, RSA signature digests, and the
// simulation-grade keyed-hash signer.
//
// The compression function is runtime-dispatched: a portable scalar
// implementation always exists, an unrolled scalar variant is the portable
// default, and on x86-64 the dispatcher upgrades to SHA-NI or AVX2 when
// CPUID says the CPU has them. Every implementation produces bit-identical
// digests (asserted against NIST vectors and randomized splits in
// crypto_test); dispatch only changes throughput, never output.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace mustaple::crypto {

/// Compression-function implementations, in ascending preference order.
enum class Sha256Impl {
  kScalar,    ///< straightforward FIPS 180-4 loop (reference baseline)
  kUnrolled,  ///< unrolled rounds + rolling 16-word schedule (portable default)
  kAvx2,      ///< SIMD message schedule, scalar rounds (x86-64 with AVX2)
  kShaNi,     ///< SHA extensions (x86-64 with SHA-NI)
};

const char* to_string(Sha256Impl impl);

/// The implementation the dispatcher currently uses.
Sha256Impl sha256_active_impl();
/// All implementations usable on this CPU (always contains kScalar and
/// kUnrolled).
std::vector<Sha256Impl> sha256_available_impls();
/// Forces a specific implementation (tests/benchmarks). Returns false —
/// leaving the dispatch unchanged — when the CPU lacks it.
bool sha256_set_impl(Sha256Impl impl);

/// Incremental SHA-256. Typical use: Sha256().update(a).update(b).digest().
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;

  Sha256();

  Sha256& update(const std::uint8_t* data, std::size_t len);
  Sha256& update(const util::Bytes& data) {
    return update(data.data(), data.size());
  }

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// updated afterwards.
  util::Bytes digest();
  /// Finalizes into out[0, kDigestSize) without allocating; the same
  /// contract as digest().
  void digest_to(std::uint8_t* out);

  /// One-shot convenience.
  static util::Bytes hash(const util::Bytes& data);

 private:
  void process_blocks(const std::uint8_t* blocks, std::size_t n);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  bool finalized_ = false;
};

}  // namespace mustaple::crypto
