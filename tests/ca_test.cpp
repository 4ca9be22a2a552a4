// CA simulation tests: issuance, the dual revocation databases, CRL
// publication, and the OCSP responder's full behaviour-profile space.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "ca/crl_server.hpp"
#include "ca/responder.hpp"
#include "crypto/sha256.hpp"
#include "obs/obs.hpp"
#include "ocsp/request.hpp"
#include "ocsp/verify.hpp"
#include "x509/verify.hpp"

namespace mustaple::ca {
namespace {

using util::Bytes;
using util::Duration;
using util::SimTime;

const SimTime kNow = util::make_time(2018, 5, 1, 12);

struct Fixture : public ::testing::Test {
  util::Rng rng{2024};
  CertificateAuthority authority{"TestCA", kNow - Duration::days(2000), rng};

  x509::Certificate issue(const std::string& domain, bool must_staple = false) {
    LeafRequest request;
    request.domain = domain;
    request.not_before = kNow - Duration::days(30);
    request.lifetime = Duration::days(365);
    request.must_staple = must_staple;
    request.ocsp_urls = {"http://ocsp.testca.example/"};
    request.crl_urls = {"http://crl.testca.example/ca.crl"};
    return authority.issue(request, rng);
  }

  ocsp::CertId id_for(const x509::Certificate& leaf) {
    return ocsp::CertId::for_certificate(leaf, authority.intermediate_cert());
  }
};

// ------------------------------------------------------------- authority --

TEST_F(Fixture, RootAndIntermediateWellFormed) {
  EXPECT_TRUE(authority.root_cert().is_self_signed());
  EXPECT_TRUE(authority.root_cert().extensions().is_ca.value_or(false));
  EXPECT_FALSE(authority.intermediate_cert().is_self_signed());
  EXPECT_TRUE(
      authority.intermediate_cert().verify_signature(
          authority.root_cert().public_key()));
}

TEST_F(Fixture, IssuedChainVerifies) {
  const x509::Certificate leaf = issue("site.example");
  x509::RootStore roots;
  roots.add(authority.root_cert());
  const auto chain = authority.chain_for(leaf);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_TRUE(x509::verify_chain(chain, roots, kNow).ok());
  EXPECT_TRUE(authority.was_issued(leaf.serial()));
  EXPECT_FALSE(authority.was_issued(Bytes{0x01}));
}

TEST_F(Fixture, SerialsAreUnique) {
  std::set<std::string> serials;
  for (int i = 0; i < 200; ++i) {
    serials.insert(issue("s" + std::to_string(i) + ".example").serial_hex());
  }
  EXPECT_EQ(serials.size(), 200u);
}

TEST_F(Fixture, MustStapleFlagPropagates) {
  EXPECT_TRUE(issue("ms.example", true).extensions().must_staple);
  EXPECT_FALSE(issue("no.example", false).extensions().must_staple);
}

TEST_F(Fixture, RevocationUpdatesBothDatabases) {
  const x509::Certificate leaf = issue("revoked.example");
  authority.revoke(leaf.serial(), kNow - Duration::days(1),
                   crl::ReasonCode::kKeyCompromise, RevocationPolicy{});
  ocsp::RevokedInfo info;
  EXPECT_EQ(authority.ocsp_status(leaf.serial(), &info),
            ocsp::CertStatus::kRevoked);
  EXPECT_EQ(info.revocation_time, kNow - Duration::days(1));
  const RevocationRecord* crl_record = authority.crl_record(leaf.serial());
  ASSERT_NE(crl_record, nullptr);
  EXPECT_EQ(crl_record->revocation_time, kNow - Duration::days(1));
  EXPECT_EQ(crl_record->reason, crl::ReasonCode::kKeyCompromise);
}

TEST_F(Fixture, DefaultPolicyDropsOcspReason) {
  // The paper: 99.99% of reason discrepancies are CRL-has/OCSP-hasn't.
  const x509::Certificate leaf = issue("reason.example");
  authority.revoke(leaf.serial(), kNow, crl::ReasonCode::kSuperseded,
                   RevocationPolicy{});
  ocsp::RevokedInfo info;
  authority.ocsp_status(leaf.serial(), &info);
  EXPECT_EQ(info.reason, std::nullopt);
  EXPECT_EQ(authority.crl_record(leaf.serial())->reason,
            crl::ReasonCode::kSuperseded);
}

TEST_F(Fixture, OcspTimeOffsetApplied) {
  const x509::Certificate leaf = issue("lag.example");
  RevocationPolicy policy;
  policy.ocsp_time_offset = Duration::hours(9);  // the msocsp pattern
  authority.revoke(leaf.serial(), kNow, std::nullopt, policy);
  ocsp::RevokedInfo info;
  authority.ocsp_status(leaf.serial(), &info);
  EXPECT_EQ(info.revocation_time - kNow, Duration::hours(9));
  EXPECT_EQ(authority.crl_record(leaf.serial())->revocation_time, kNow);
}

TEST_F(Fixture, IngestFailureAnswersGood) {
  const x509::Certificate leaf = issue("lost.example");
  RevocationPolicy policy;
  policy.ocsp_ingest = RevocationPolicy::OcspIngest::kMissingAnswersGood;
  authority.revoke(leaf.serial(), kNow, std::nullopt, policy);
  EXPECT_EQ(authority.ocsp_status(leaf.serial(), nullptr),
            ocsp::CertStatus::kGood);  // Table 1's Good-for-revoked
  EXPECT_NE(authority.crl_record(leaf.serial()), nullptr);  // CRL has it
}

TEST_F(Fixture, IngestFailureAnswersUnknown) {
  const x509::Certificate leaf = issue("lost2.example");
  RevocationPolicy policy;
  policy.ocsp_ingest = RevocationPolicy::OcspIngest::kMissingAnswersUnknown;
  authority.revoke(leaf.serial(), kNow, std::nullopt, policy);
  EXPECT_EQ(authority.ocsp_status(leaf.serial(), nullptr),
            ocsp::CertStatus::kUnknown);
}

TEST_F(Fixture, UnknownSerialIsUnknown) {
  EXPECT_EQ(authority.ocsp_status(Bytes{0xde, 0xad}, nullptr),
            ocsp::CertStatus::kUnknown);
}

TEST_F(Fixture, PublishedCrlContainsRevocations) {
  const x509::Certificate a = issue("a.example");
  const x509::Certificate b = issue("b.example");
  authority.revoke(a.serial(), kNow - Duration::days(2),
                   crl::ReasonCode::kUnspecified, RevocationPolicy{});
  const crl::Crl crl = authority.publish_crl(kNow, Duration::days(7));
  EXPECT_TRUE(crl.is_revoked(a.serial()));
  EXPECT_FALSE(crl.is_revoked(b.serial()));
  EXPECT_TRUE(crl.verify_signature(
      authority.intermediate_cert().public_key()));
  EXPECT_TRUE(crl.is_fresh_at(kNow + Duration::days(6)));
}

// ------------------------------------------------------------- responder --

struct ResponderFixture : public Fixture {
  net::EventLoop loop{kNow - Duration::days(1)};
  net::Network network{loop, 7};

  ocsp::VerifiedResponse probe(OcspResponder& responder,
                               const x509::Certificate& leaf, SimTime when) {
    loop.run_until(when);
    const auto id = id_for(leaf);
    auto result = network.http_post(
        net::Region::kVirginia, net::parse_url(responder.url()).value(),
        ocsp::OcspRequest::single(id).encode_der(), "application/ocsp-request");
    if (!result.success()) {
      ocsp::VerifiedResponse failed;
      failed.error_code = "transport";
      return failed;
    }
    return ocsp::verify_ocsp_response(
        result.response.body, id,
        authority.intermediate_cert().public_key(), when);
  }
};

TEST_F(ResponderFixture, GoodCertificateAnsweredGood) {
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.t.example", rng);
  responder.install(network);
  const auto leaf = issue("good.example");
  const auto verdict = probe(responder, leaf, kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(verdict.status, ocsp::CertStatus::kGood);
}

TEST_F(ResponderFixture, RevokedCertificateAnsweredRevoked) {
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.t.example", rng);
  responder.install(network);
  const auto leaf = issue("bad.example");
  authority.revoke(leaf.serial(), kNow - Duration::days(3),
                   crl::ReasonCode::kKeyCompromise, RevocationPolicy{});
  const auto verdict = probe(responder, leaf, kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(verdict.status, ocsp::CertStatus::kRevoked);
}

TEST_F(ResponderFixture, DelegatedSigningVerifies) {
  ResponderBehavior behavior;
  behavior.delegate_signing = true;
  OcspResponder responder(authority, behavior, "ocsp.d.example", rng);
  responder.install(network);
  const auto verdict = probe(responder, issue("d.example"), kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(verdict.num_certs, 1u);  // the delegation certificate
}

TEST_F(ResponderFixture, BlankNextUpdateServed) {
  ResponderBehavior behavior;
  behavior.validity.reset();
  OcspResponder responder(authority, behavior, "ocsp.b.example", rng);
  responder.install(network);
  const auto verdict = probe(responder, issue("b2.example"), kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(verdict.next_update, std::nullopt);
}

TEST_F(ResponderFixture, WrongSerialBehaviour) {
  ResponderBehavior behavior;
  behavior.wrong_serial = true;
  OcspResponder responder(authority, behavior, "ocsp.w.example", rng);
  responder.install(network);
  const auto verdict = probe(responder, issue("w.example"), kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kSerialMismatch);
}

TEST_F(ResponderFixture, BadSignatureBehaviour) {
  ResponderBehavior behavior;
  behavior.bad_signature = true;
  OcspResponder responder(authority, behavior, "ocsp.s.example", rng);
  responder.install(network);
  const auto verdict = probe(responder, issue("s.example"), kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kBadSignature);
}

TEST_F(ResponderFixture, MalformedBodies) {
  for (auto mode : {ResponderBehavior::Malform::kZeroBody,
                    ResponderBehavior::Malform::kEmptyBody,
                    ResponderBehavior::Malform::kJavascriptBody}) {
    ResponderBehavior behavior;
    behavior.malform = mode;
    OcspResponder responder(authority, behavior,
                            "ocsp.m" + std::to_string(static_cast<int>(mode)) +
                                ".example",
                            rng);
    responder.install(network);
    const auto verdict = probe(responder, issue("m.example"), kNow);
    EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kUnparseable);
  }
}

TEST_F(ResponderFixture, MalformWindowsOnlyInsideWindow) {
  ResponderBehavior behavior;
  behavior.malform = ResponderBehavior::Malform::kZeroBody;
  behavior.malform_windows = {
      {kNow + Duration::hours(1), kNow + Duration::hours(3)}};
  OcspResponder responder(authority, behavior, "ocsp.win.example", rng);
  responder.install(network);
  const auto leaf = issue("win.example");
  EXPECT_EQ(probe(responder, leaf, kNow).outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(probe(responder, leaf, kNow + Duration::hours(2)).outcome,
            ocsp::CheckOutcome::kUnparseable);
  EXPECT_EQ(probe(responder, leaf, kNow + Duration::hours(4)).outcome,
            ocsp::CheckOutcome::kOk);
}

TEST_F(ResponderFixture, ExtraSerialsAndCerts) {
  ResponderBehavior behavior;
  behavior.extra_serials = 19;
  behavior.extra_certs = 4;  // the ocsp.cpc.gov.ae pattern
  OcspResponder responder(authority, behavior, "ocsp.x.example", rng);
  responder.install(network);
  const auto verdict = probe(responder, issue("x.example"), kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(verdict.num_serials, 20u);
  EXPECT_EQ(verdict.num_certs, 4u);
}

TEST_F(ResponderFixture, OnDemandZeroMargin) {
  ResponderBehavior behavior;
  behavior.pre_generate = false;
  behavior.this_update_margin = Duration::secs(0);
  OcspResponder responder(authority, behavior, "ocsp.z.example", rng);
  responder.install(network);
  const auto verdict = probe(responder, issue("z.example"), kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(verdict.this_update, kNow);  // zero margin (Fig 9's 17.2%)
  EXPECT_EQ(verdict.produced_at, kNow);
}

TEST_F(ResponderFixture, FutureThisUpdateRejectedByClient) {
  ResponderBehavior behavior;
  behavior.pre_generate = false;
  behavior.this_update_margin = Duration::minutes(-10);  // 3% of responders
  OcspResponder responder(authority, behavior, "ocsp.f.example", rng);
  responder.install(network);
  const auto verdict = probe(responder, issue("f.example"), kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kNotYetValid);
}

TEST_F(ResponderFixture, PreGeneratedResponsesStableWithinCycle) {
  ResponderBehavior behavior;
  behavior.pre_generate = true;
  behavior.update_interval = Duration::hours(6);
  behavior.this_update_margin = Duration::secs(0);
  OcspResponder responder(authority, behavior, "ocsp.pg.example", rng);
  responder.install(network);
  const auto leaf = issue("pg.example");
  const auto v1 = probe(responder, leaf, kNow);
  const auto v2 = probe(responder, leaf, kNow + Duration::hours(1));
  EXPECT_EQ(v1.produced_at, v2.produced_at);  // same cycle, cached
  const auto v3 = probe(responder, leaf, kNow + Duration::hours(7));
  EXPECT_GT(v3.produced_at.unix_seconds, v1.produced_at.unix_seconds);
}

TEST_F(ResponderFixture, WrongIssuerRequestDoesNotPoisonTheCycle) {
  // Regression: the pre-generation cache was keyed by serial alone, so the
  // Unknown answered to a CertID with the right serial but wrong issuer
  // hashes was served, echoing those hashes, to every correct request for
  // that serial until the next cycle.
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.poison.example",
                          rng);
  responder.install(network);
  const auto leaf = issue("poison.example");
  authority.revoke(leaf.serial(), kNow - Duration::days(1),
                   crl::ReasonCode::kKeyCompromise, RevocationPolicy{});
  ocsp::CertId bogus = id_for(leaf);
  bogus.issuer_name_hash.assign(20, 0x5a);
  bogus.issuer_key_hash.assign(20, 0xa5);
  const auto bogus_answer =
      ocsp::OcspResponse::parse(responder.build_response_der(bogus, kNow));
  ASSERT_TRUE(bogus_answer.ok());
  ASSERT_EQ(bogus_answer.value().responses().size(), 1u);
  EXPECT_EQ(bogus_answer.value().responses()[0].status,
            ocsp::CertStatus::kUnknown);

  const auto verdict = probe(responder, leaf, kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(verdict.status, ocsp::CertStatus::kRevoked);
  EXPECT_EQ(responder.cache_entries(), 2u);
}

TEST_F(ResponderFixture, TryLaterMode) {
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.tl.example",
                          rng);
  responder.install(network);
  const auto leaf = issue("tl.example");
  EXPECT_EQ(probe(responder, leaf, kNow).outcome, ocsp::CheckOutcome::kOk);
  responder.set_try_later(true);
  EXPECT_EQ(probe(responder, leaf, kNow + Duration::secs(10)).outcome,
            ocsp::CheckOutcome::kNotSuccessful);
  responder.set_try_later(false);
  EXPECT_EQ(probe(responder, leaf, kNow + Duration::secs(20)).outcome,
            ocsp::CheckOutcome::kOk);
}

TEST_F(ResponderFixture, TryLaterAccessorTracksLiveSwitchNotBehavior) {
  // Regression: the live tryLater switch became an atomic separate from the
  // construction-time behavior profile (set_try_later() races serving
  // threads). behavior() keeps reporting the configured profile.
  ResponderBehavior behavior;
  behavior.respond_try_later = true;
  OcspResponder responder(authority, behavior, "ocsp.tl3.example", rng);
  EXPECT_TRUE(responder.try_later());
  responder.set_try_later(false);
  EXPECT_FALSE(responder.try_later());
  EXPECT_TRUE(responder.behavior().respond_try_later);  // profile unchanged
}

TEST_F(ResponderFixture, TryLaterFlipsAreSafeAgainstConcurrentServing) {
  // Toggle the switch from another thread while probes are served; each
  // probe must land on one of the two modes, never anything else. Run under
  // TSan to check the data-race half of the contract.
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.tl4.example",
                          rng);
  responder.install(network);
  const auto leaf = issue("tl4.example");
  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    bool value = true;
    while (!stop.load()) {
      responder.set_try_later(value);
      value = !value;
    }
  });
  for (int i = 0; i < 200; ++i) {
    const auto result = probe(responder, leaf, kNow + Duration::secs(i));
    EXPECT_TRUE(result.outcome == ocsp::CheckOutcome::kOk ||
                result.outcome == ocsp::CheckOutcome::kNotSuccessful);
  }
  stop.store(true);
  toggler.join();
}

TEST_F(ResponderFixture, OnDemandConcurrentBuildsMatchSequentialBuilds) {
  // On-demand responders sign without the responder lock; concurrent builds
  // for distinct CertIDs and nonces must still produce exactly the bytes a
  // sequential build does. Run under TSan for the data-race half.
  ResponderBehavior behavior;
  behavior.pre_generate = false;
  behavior.extra_serials = 2;
  behavior.delegate_signing = true;
  OcspResponder responder(authority, behavior, "ocsp.par.example", rng);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<ocsp::CertId> ids;
  std::vector<Bytes> nonces;
  std::vector<Bytes> expected;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    ids.push_back(id_for(issue("par" + std::to_string(i) + ".example")));
    nonces.push_back(Bytes(16, static_cast<std::uint8_t>(i)));
    expected.push_back(responder.build_response_der(ids.back(), kNow,
                                                    nonces.back()));
  }
  std::vector<Bytes> built(expected.size());
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        const auto i = static_cast<std::size_t>(k * kThreads + t);
        built[i] = responder.build_response_der(ids[i], kNow, nonces[i]);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(built[i], expected[i]) << "CertID " << i;
  }
  EXPECT_EQ(responder.cache_entries(), 0u);
}

TEST_F(ResponderFixture, PreGeneratedConcurrentRequestsSignOncePerCertId) {
  // Pre-generated responders hold the lock across a miss's signing: four
  // threads asking for the same CertIDs in one cycle sign each exactly once.
  // The wrong-issuer twin of every CertID is a cache entry of its own.
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.pgpar.example",
                          rng);
  std::vector<ocsp::CertId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(id_for(issue("pgpar" + std::to_string(i) + ".example")));
    ocsp::CertId twin = ids.back();
    twin.issuer_key_hash.assign(20, 0x33);
    ids.push_back(twin);
  }
#if MUSTAPLE_OBS_ENABLED
  const auto regenerations = [] {
    return obs::default_registry().counter_value(
        "mustaple_ca_ocsp_regenerations_total");
  };
  const std::uint64_t before = regenerations();
#endif
  std::vector<std::vector<Bytes>> answers(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (const auto& id : ids) {
          answers[static_cast<std::size_t>(t)].push_back(
              responder.build_response_der(id, kNow + Duration::secs(round)));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
#if MUSTAPLE_OBS_ENABLED
  EXPECT_EQ(regenerations() - before, ids.size());
#endif
  EXPECT_EQ(responder.cache_entries(), ids.size());
  for (const auto& per_thread : answers) {
    EXPECT_EQ(per_thread, answers[0]);  // every thread saw the cached bytes
  }
}

TEST_F(ResponderFixture, GetWithBadPathIsMalformedRequest) {
  // RFC 6960 Appendix A: GET is supported, with the request base64-encoded
  // into the path; a path that decodes to garbage gets an OCSP-level
  // malformedRequest (still HTTP 200).
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.g.example",
                          rng);
  responder.install(network);
  auto result = network.http_get(net::Region::kParis,
                                 net::parse_url(responder.url()).value());
  ASSERT_EQ(result.response.status_code, 200);
  auto parsed = ocsp::OcspResponse::parse(result.response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().response_status(),
            ocsp::ResponseStatus::kMalformedRequest);
}

TEST_F(ResponderFixture, GetWithEncodedRequestWorks) {
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.g2.example",
                          rng);
  responder.install(network);
  const auto leaf = issue("get.example");
  const auto id = id_for(leaf);
  loop.run_until(kNow);
  net::Url url = net::parse_url(responder.url()).value();
  url.path = ocsp::OcspRequest::single(id).encode_get_path();
  auto result = network.http_get(net::Region::kParis, url);
  ASSERT_TRUE(result.success());
  const auto verdict = ocsp::verify_ocsp_response(
      result.response.body, id, authority.intermediate_cert().public_key(),
      kNow);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
  EXPECT_EQ(verdict.status, ocsp::CertStatus::kGood);
}

TEST_F(ResponderFixture, UnsupportedMethodRejected) {
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.g3.example",
                          rng);
  responder.install(network);
  loop.run_until(kNow);
  net::HttpRequest request;
  request.method = "PUT";
  auto result = network.http_request(net::Region::kParis,
                                     net::parse_url(responder.url()).value(),
                                     std::move(request));
  EXPECT_EQ(result.response.status_code, 400);
}

TEST_F(ResponderFixture, GarbageRequestGetsMalformedRequestStatus) {
  OcspResponder responder(authority, ResponderBehavior{}, "ocsp.q.example",
                          rng);
  responder.install(network);
  auto result = network.http_post(net::Region::kParis,
                                  net::parse_url(responder.url()).value(),
                                  util::bytes_of("garbage"),
                                  "application/ocsp-request");
  ASSERT_TRUE(result.success());
  auto parsed = ocsp::OcspResponse::parse(result.response.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().response_status(),
            ocsp::ResponseStatus::kMalformedRequest);
}

// ------------------------------------------------------------- wire bytes --

// Pins the exact DER of every structure the CA side encodes: certificates,
// a CRL, OCSP requests, and each response shape the responder produces. A
// parse round trip cannot catch an encoder that changes bytes but still
// emits valid DER; this hash of the concatenated encodings does. The
// constant predates the single-buffer DER writer; an encoder refactor must
// reproduce it, never update it.
TEST_F(ResponderFixture, EncodedDerMatchesGolden) {
  Bytes all;
  std::size_t objects = 0;
  const auto add = [&](const Bytes& der) {
    util::append(all, der);
    ++objects;
    return der;
  };
  const auto parse = [](const Bytes& der) {
    auto response = ocsp::OcspResponse::parse(der);
    EXPECT_TRUE(response.ok()) << response.error().to_string();
    return response.ok() ? std::move(response).take() : ocsp::OcspResponse{};
  };

  add(authority.root_cert().encode_der());
  add(authority.intermediate_cert().encode_der());
  const x509::Certificate staple = issue("golden-staple.example", true);
  const x509::Certificate plain = issue("golden-plain.example");
  const x509::Certificate compromised = issue("golden-compromised.example");
  const x509::Certificate superseded = issue("golden-superseded.example");
  const x509::Certificate no_reason = issue("golden-no-reason.example");
  add(staple.encode_der());
  add(plain.encode_der());

  RevocationPolicy keep_reason;
  keep_reason.ocsp_drops_reason = false;
  authority.revoke(compromised.serial(), kNow - Duration::days(3),
                   crl::ReasonCode::kKeyCompromise, keep_reason);
  authority.revoke(superseded.serial(), kNow - Duration::days(2),
                   crl::ReasonCode::kSuperseded, RevocationPolicy{});
  authority.revoke(no_reason.serial(), kNow - Duration::days(1), std::nullopt,
                   RevocationPolicy{});
  add(authority.publish_crl(kNow, Duration::days(7)).encode_der());

  const Bytes nonce = util::from_hex("0f1e2d3c4b5a69788796a5b4c3d2e1f0");
  const ocsp::OcspRequest plain_request =
      ocsp::OcspRequest::single(id_for(plain));
  add(plain_request.encode_der());
  ocsp::OcspRequest nonced_request = ocsp::OcspRequest::single(id_for(staple));
  nonced_request.set_nonce(nonce);
  add(nonced_request.encode_der());

  ocsp::CertId wrong_issuer = id_for(plain);
  wrong_issuer.issuer_name_hash.assign(20, 0x5a);
  const ocsp::CertId intermediate_id = ocsp::CertId::for_certificate(
      authority.intermediate_cert(), authority.root_cert());

  OcspResponder standard(authority, ResponderBehavior{}, "ocsp.gold.example",
                         rng);
  add(standard.build_response_der(id_for(staple), kNow));
  const Bytes revoked =
      add(standard.build_response_der(id_for(compromised), kNow));
  add(standard.build_response_der(id_for(superseded), kNow));
  const Bytes unknown = add(standard.build_response_der(wrong_issuer, kNow));
  const Bytes root_issued =
      add(standard.build_response_der(intermediate_id, kNow));

  const auto respond = [&](ResponderBehavior behavior, const char* host,
                           const std::optional<Bytes>& request_nonce) {
    OcspResponder responder(authority, std::move(behavior), host, rng);
    return add(responder.build_response_der(id_for(plain), kNow, request_nonce));
  };
  ResponderBehavior blank;
  blank.validity.reset();
  const Bytes no_next_update =
      respond(blank, "ocsp.gold-blank.example", std::nullopt);
  ResponderBehavior extra_serials;
  extra_serials.extra_serials = 3;
  const Bytes many_serials =
      respond(extra_serials, "ocsp.gold-serials.example", std::nullopt);
  ResponderBehavior extra_certs;
  extra_certs.extra_certs = 3;
  const Bytes many_certs =
      respond(extra_certs, "ocsp.gold-certs.example", std::nullopt);
  ResponderBehavior delegated;
  delegated.delegate_signing = true;
  const Bytes delegate =
      respond(delegated, "ocsp.gold-delegate.example", std::nullopt);
  ResponderBehavior on_demand;
  on_demand.pre_generate = false;
  on_demand.this_update_margin = Duration::secs(0);
  const Bytes nonced = respond(on_demand, "ocsp.gold-nonce.example", nonce);

  net::HttpRequest post;
  post.method = "POST";
  post.body = plain_request.encode_der();
  standard.set_try_later(true);
  const Bytes try_later =
      add(standard.handle(post, kNow, net::Region::kVirginia).body);
  standard.set_try_later(false);
  post.body = util::bytes_of("garbage");
  const Bytes malformed =
      add(standard.handle(post, kNow, net::Region::kVirginia).body);

  // The fixture covers the shapes its name claims.
  const ocsp::OcspResponse revoked_response = parse(revoked);
  ASSERT_EQ(revoked_response.responses().size(), 1u);
  ASSERT_TRUE(revoked_response.responses()[0].revoked.has_value());
  EXPECT_EQ(revoked_response.responses()[0].revoked->reason,
            crl::ReasonCode::kKeyCompromise);
  ASSERT_EQ(parse(unknown).responses().size(), 1u);
  EXPECT_EQ(parse(unknown).responses()[0].status, ocsp::CertStatus::kUnknown);
  EXPECT_EQ(parse(root_issued).certs().size(), 1u);
  ASSERT_EQ(parse(no_next_update).responses().size(), 1u);
  EXPECT_FALSE(parse(no_next_update).responses()[0].next_update.has_value());
  EXPECT_EQ(parse(many_serials).responses().size(), 4u);
  EXPECT_EQ(parse(many_certs).certs().size(), 3u);
  EXPECT_EQ(parse(delegate).certs().size(), 1u);
  EXPECT_EQ(parse(nonced).nonce(), nonce);
  EXPECT_EQ(parse(try_later).response_status(), ocsp::ResponseStatus::kTryLater);
  EXPECT_EQ(parse(malformed).response_status(),
            ocsp::ResponseStatus::kMalformedRequest);

  EXPECT_EQ(objects, 19u);
  EXPECT_EQ(all.size(), 6139u);
  EXPECT_EQ(util::to_hex(crypto::Sha256::hash(all)),
            "fe6c18ba09723c78fd181eea42cfca7c9df273fe4053d1a525089273237e729a");
}

// ------------------------------------------------------------ crl server --

TEST_F(ResponderFixture, CrlServerServesCurrentCrl) {
  CrlServer server(authority, "crl.t.example", Duration::days(1),
                   Duration::days(7));
  server.install(network);
  const auto leaf = issue("crl.example");
  authority.revoke(leaf.serial(), kNow - Duration::days(1),
                   crl::ReasonCode::kUnspecified, RevocationPolicy{});
  loop.run_until(kNow);
  auto result = network.http_get(net::Region::kOregon,
                                 net::parse_url(server.url()).value());
  ASSERT_TRUE(result.success());
  auto parsed = crl::Crl::parse(result.response.body);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value().is_revoked(leaf.serial()));
  EXPECT_TRUE(parsed.value().is_fresh_at(kNow));
  // thisUpdate is publication-cycle aligned (midnight for daily cadence).
  EXPECT_EQ(parsed.value().this_update(), util::make_time(2018, 5, 1));
}

TEST_F(ResponderFixture, CrlServerRejectsPost) {
  CrlServer server(authority, "crl.p.example");
  server.install(network);
  loop.run_until(kNow);
  auto result = network.http_post(net::Region::kOregon,
                                  net::parse_url(server.url()).value(),
                                  util::bytes_of("x"), "text/plain");
  EXPECT_EQ(result.response.status_code, 400);
}

}  // namespace
}  // namespace mustaple::ca
