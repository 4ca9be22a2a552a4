// Microbenchmarks for the wire-format substrates: X.509 build/encode/parse
// and CRL parse at growing entry counts.
#include <benchmark/benchmark.h>

#include "crl/crl.hpp"
#include "x509/certificate.hpp"

namespace {

using namespace mustaple;

const crypto::KeyPair& key() {
  static const crypto::KeyPair k = [] {
    util::Rng rng(1);
    return crypto::KeyPair::generate_sim(rng);
  }();
  return k;
}

x509::Certificate make_cert() {
  util::Rng rng(2);
  return x509::CertificateBuilder()
      .serial_number(123456789)
      .subject(x509::DistinguishedName{"bench.example", "", ""})
      .issuer(x509::DistinguishedName{"Bench CA", "Bench", "US"})
      .validity(util::make_time(2018, 1, 1), util::make_time(2019, 1, 1))
      .public_key(crypto::KeyPair::generate_sim(rng).public_key())
      .add_ocsp_url("http://ocsp.bench.example/")
      .add_crl_url("http://crl.bench.example/ca.crl")
      .must_staple(true)
      .sign(key());
}

void BM_CertificateBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_cert());
  }
}
BENCHMARK(BM_CertificateBuild);

void BM_CertificateEncode(benchmark::State& state) {
  const x509::Certificate cert = make_cert();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cert.encode_der());
  }
}
BENCHMARK(BM_CertificateEncode);

void BM_CertificateParse(benchmark::State& state) {
  const util::Bytes der = make_cert().encode_der();
  for (auto _ : state) {
    benchmark::DoNotOptimize(x509::Certificate::parse(der));
  }
}
BENCHMARK(BM_CertificateParse);

void BM_CrlRoundTrip(benchmark::State& state) {
  crl::CrlBuilder builder;
  builder.issuer(x509::DistinguishedName{"Bench CA", "", ""})
      .this_update(util::make_time(2018, 5, 1))
      .next_update(util::make_time(2018, 5, 8));
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    builder.add_entry(crl::RevokedEntry{
        {static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i)},
        util::make_time(2018, 4, 1),
        crl::ReasonCode::kKeyCompromise});
  }
  const crl::Crl crl = builder.sign(key());
  const util::Bytes der = crl.encode_der();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crl::Crl::parse(der));
  }
  state.SetLabel(std::to_string(der.size()) + " bytes");
}
BENCHMARK(BM_CrlRoundTrip)->Arg(10)->Arg(1000)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
