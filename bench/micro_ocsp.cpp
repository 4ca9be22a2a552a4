// Microbenchmarks for the OCSP pipeline: request encoding and full
// client-side response verification, direct and delegated.
#include <benchmark/benchmark.h>

#include "ca/authority.hpp"
#include "ca/responder.hpp"
#include "ocsp/request.hpp"
#include "ocsp/verify.hpp"

namespace {

using namespace mustaple;

struct BenchWorld {
  util::Rng rng{7};
  ca::CertificateAuthority authority{"BenchCA", util::make_time(2010, 1, 1),
                                     rng};
  x509::Certificate leaf;
  ocsp::CertId id;
  util::SimTime now = util::make_time(2018, 5, 1);

  BenchWorld() {
    ca::LeafRequest request;
    request.domain = "bench.example";
    request.not_before = util::make_time(2018, 1, 1);
    request.lifetime = util::Duration::days(400);
    request.ocsp_urls = {"http://ocsp.bench.example/"};
    leaf = authority.issue(request, rng);
    id = ocsp::CertId::for_certificate(leaf, authority.intermediate_cert());
  }
};

BenchWorld& world() {
  static BenchWorld w;
  return w;
}

void BM_OcspRequestEncode(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(ocsp::OcspRequest::single(world().id).encode_der());
  }
}
BENCHMARK(BM_OcspRequestEncode);

void BM_VerifyResponse(benchmark::State& state) {
  ca::ResponderBehavior behavior;
  behavior.delegate_signing = state.range(0) != 0;
  ca::OcspResponder responder(world().authority, behavior, "o3.example",
                              world().rng);
  const util::Bytes body =
      responder.build_response_der(world().id, world().now);
  const crypto::PublicKey& key =
      world().authority.intermediate_cert().public_key();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ocsp::verify_ocsp_response(body, world().id, key, world().now));
  }
  state.SetLabel(behavior.delegate_signing ? "delegated" : "direct");
}
BENCHMARK(BM_VerifyResponse)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
