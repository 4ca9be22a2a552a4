// Microbenchmarks for the crypto substrate: SHA-256 per dispatch tier,
// HMAC, BigInt multiply and modexp, RSA sign/verify.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "crypto/bigint.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace mustaple;

// Arguments: message bytes, then the Sha256Impl to force. Every tier this
// CPU has runs at every size, so the MB/s column compares the tiers.
void BM_Sha256(benchmark::State& state) {
  const auto impl = static_cast<crypto::Sha256Impl>(state.range(1));
  const crypto::Sha256Impl active = crypto::sha256_active_impl();
  crypto::sha256_set_impl(impl);
  util::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  crypto::sha256_set_impl(active);  // restore the dispatcher's choice
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crypto::to_string(impl));
}
BENCHMARK(BM_Sha256)->Apply([](benchmark::internal::Benchmark* b) {
  for (const std::int64_t bytes : {64, 1024, 65536}) {
    for (const crypto::Sha256Impl impl : crypto::sha256_available_impls()) {
      b->Args({bytes, static_cast<std::int64_t>(impl)});
    }
  }
});

void BM_HmacSha256(benchmark::State& state) {
  const util::Bytes key(32, 0x11);
  util::Bytes data(256, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

void BM_BigIntMul(benchmark::State& state) {
  util::Rng rng(1);
  const auto a = crypto::BigInt::random_bits(
      static_cast<std::size_t>(state.range(0)), rng);
  const auto b = crypto::BigInt::random_bits(
      static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_BigIntMul)->Arg(256)->Arg(512)->Arg(1024);

void BM_BigIntModExp(benchmark::State& state) {
  util::Rng rng(2);
  const auto bits = static_cast<std::size_t>(state.range(0));
  const auto base = crypto::BigInt::random_bits(bits - 1, rng);
  const auto exp = crypto::BigInt::random_bits(bits - 1, rng);
  auto mod = crypto::BigInt::random_bits(bits, rng);
  if (!mod.is_odd()) mod = mod + crypto::BigInt(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::BigInt::mod_exp(base, exp, mod));
  }
}
BENCHMARK(BM_BigIntModExp)->Arg(256)->Arg(512);

void BM_RsaSign(benchmark::State& state) {
  util::Rng rng(3);
  const auto kp = crypto::RsaKeyPair::generate(512, rng);
  const util::Bytes msg = util::bytes_of("benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_sign_sha256(kp, msg));
  }
}
BENCHMARK(BM_RsaSign);

void BM_RsaVerify(benchmark::State& state) {
  util::Rng rng(4);
  const auto kp = crypto::RsaKeyPair::generate(512, rng);
  const util::Bytes msg = util::bytes_of("benchmark message");
  const util::Bytes sig = crypto::rsa_sign_sha256(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::rsa_verify_sha256(kp.public_key, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify);

}  // namespace

BENCHMARK_MAIN();
