// Tests for the extension features beyond the paper's 2018 baseline:
// base64 / OCSP-over-GET (RFC 6960 Appendix A), the OCSP nonce (§4.4.1 and
// its tension with pre-generated responses), RFC 6961 multi-stapling, the
// responder's issuer-hash check, and the browser CRL fallback.
#include <gtest/gtest.h>

#include <functional>

#include "browser/browser.hpp"
#include "ca/authority.hpp"
#include "ca/crl_server.hpp"
#include "ca/responder.hpp"
#include "ocsp/request.hpp"
#include "ocsp/verify.hpp"
#include "util/base64.hpp"
#include "webserver/webserver.hpp"

namespace mustaple {
namespace {

using util::Bytes;
using util::Duration;
using util::SimTime;

const SimTime kNow = util::make_time(2018, 6, 15);

// ---------------------------------------------------------------- base64 --

TEST(Base64, Rfc4648Vectors) {
  EXPECT_EQ(util::base64_encode(util::bytes_of("")), "");
  EXPECT_EQ(util::base64_encode(util::bytes_of("f")), "Zg==");
  EXPECT_EQ(util::base64_encode(util::bytes_of("fo")), "Zm8=");
  EXPECT_EQ(util::base64_encode(util::bytes_of("foo")), "Zm9v");
  EXPECT_EQ(util::base64_encode(util::bytes_of("foob")), "Zm9vYg==");
  EXPECT_EQ(util::base64_encode(util::bytes_of("fooba")), "Zm9vYmE=");
  EXPECT_EQ(util::base64_encode(util::bytes_of("foobar")), "Zm9vYmFy");
}

TEST(Base64, DecodeVectors) {
  EXPECT_EQ(util::base64_decode("Zm9vYmFy").value(), util::bytes_of("foobar"));
  EXPECT_EQ(util::base64_decode("Zg==").value(), util::bytes_of("f"));
  EXPECT_EQ(util::base64_decode("").value(), Bytes{});
}

TEST(Base64, RejectsBadInput) {
  EXPECT_FALSE(util::base64_decode("a").ok());         // 1 mod 4
  EXPECT_FALSE(util::base64_decode("ab!c").ok());      // bad character
  EXPECT_FALSE(util::base64_decode("Zh==").ok());      // nonzero trailing bits
}

TEST(Base64, UrlSafeUsesDifferentAlphabet) {
  const Bytes data = {0xfb, 0xff, 0xfe};
  const std::string standard = util::base64_encode(data);
  const std::string url_safe = util::base64url_encode(data);
  EXPECT_NE(standard.find('+'), std::string::npos);
  EXPECT_EQ(url_safe.find('+'), std::string::npos);
  EXPECT_EQ(url_safe.find('='), std::string::npos);  // unpadded
  EXPECT_EQ(util::base64url_decode(url_safe).value(), data);
}

// The in-place decoder an OCSP GET path goes through accepts exactly what
// "URL-safe, else standard" accepts, with the same bytes, and fails with
// the standard decoder's code. Every string of up to 6 characters over an
// alphabet that mixes both alphabets, padding, a stray byte and zero bits.
TEST(Base64, InPlaceDecodeIsUrlSafeElseStandard) {
  const std::string symbols = "AQg-_+/=!";
  std::size_t checked = 0;
  std::string text;
  const auto check = [&] {
    const auto url = util::base64url_decode(text);
    const auto standard = util::base64_decode(text);
    Bytes buf(text.begin(), text.end());
    const util::Status status = util::base64_decode_in_place(buf);
    if (url.ok() || standard.ok()) {
      ASSERT_TRUE(status.ok()) << text;
      EXPECT_EQ(buf, url.ok() ? url.value() : standard.value()) << text;
    } else {
      ASSERT_FALSE(status.ok()) << text;
      EXPECT_EQ(status.error().code, standard.error().code) << text;
    }
    ++checked;
  };
  const std::function<void(std::size_t)> extend = [&](std::size_t left) {
    check();
    if (left == 0) return;
    for (const char c : symbols) {
      text.push_back(c);
      extend(left - 1);
      text.pop_back();
    }
  };
  extend(6);
  EXPECT_EQ(checked, 597871u);  // 1 + 9 + 9^2 + ... + 9^6
}

class Base64RoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Base64RoundTrip, BothAlphabets) {
  util::Rng rng(GetParam() + 99);
  Bytes data(GetParam());
  rng.fill(data.data(), data.size());
  EXPECT_EQ(util::base64_decode(util::base64_encode(data)).value(), data);
  EXPECT_EQ(util::base64url_decode(util::base64url_encode(data)).value(), data);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Base64RoundTrip,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 17, 64, 255,
                                           1000));

// --------------------------------------------------------------- fixture --

struct ExtWorld {
  util::Rng rng{404};
  net::EventLoop loop{kNow - Duration::days(1)};
  net::Network network{loop, 404};
  ca::CertificateAuthority authority{"ExtCA", kNow - Duration::days(900), rng};
  x509::RootStore roots;

  ExtWorld() { roots.add(authority.root_cert()); }

  x509::Certificate issue(const std::string& domain, bool must_staple = false) {
    ca::LeafRequest request;
    request.domain = domain;
    request.not_before = kNow - Duration::days(10);
    request.lifetime = Duration::days(90);
    request.must_staple = must_staple;
    request.ocsp_urls = {"http://ocsp.ext.example/"};
    request.crl_urls = {"http://crl.ext.example/ca.crl"};
    return authority.issue(request, rng);
  }

  ocsp::CertId id_for(const x509::Certificate& leaf) {
    return ocsp::CertId::for_certificate(leaf, authority.intermediate_cert());
  }
};

// ----------------------------------------------------------------- nonce --

TEST(Nonce, RequestRoundTrip) {
  ExtWorld w;
  const auto leaf = w.issue("n.example");
  ocsp::OcspRequest request = ocsp::OcspRequest::single(w.id_for(leaf));
  request.set_nonce({1, 2, 3, 4, 5, 6, 7, 8});
  auto parsed = ocsp::OcspRequest::parse(request.encode_der());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_TRUE(parsed.value().nonce().has_value());
  EXPECT_EQ(*parsed.value().nonce(), (Bytes{1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(Nonce, ResponseRoundTrip) {
  ExtWorld w;
  const auto leaf = w.issue("n2.example");
  ocsp::SingleResponse single;
  single.cert_id = w.id_for(leaf);
  single.status = ocsp::CertStatus::kGood;
  single.this_update = kNow - Duration::hours(1);
  single.next_update = kNow + Duration::days(1);
  const auto response = ocsp::OcspResponseBuilder()
                            .produced_at(kNow)
                            .add_single(single)
                            .nonce({9, 9, 9})
                            .sign(w.authority.intermediate_key());
  auto parsed = ocsp::OcspResponse::parse(response.encode_der());
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  ASSERT_TRUE(parsed.value().nonce().has_value());
  EXPECT_EQ(*parsed.value().nonce(), (Bytes{9, 9, 9}));
}

TEST(Nonce, OnDemandResponderEchoesNonce) {
  ExtWorld w;
  ca::ResponderBehavior behavior;
  behavior.pre_generate = false;
  ca::OcspResponder responder(w.authority, behavior, "ocsp.ext.example", w.rng);
  const auto leaf = w.issue("n3.example");
  const Bytes nonce = {0xaa, 0xbb, 0xcc};
  const Bytes body = responder.build_response_der(w.id_for(leaf), kNow, nonce);
  const auto verdict = ocsp::verify_ocsp_response_static(
      body, w.id_for(leaf), w.authority.intermediate_cert().public_key(),
      nonce);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kOk);
}

TEST(Nonce, PreGeneratedResponderCannotEcho) {
  // The structural tension: cached responses cannot carry per-request
  // nonces — a strict-nonce client rejects them.
  ExtWorld w;
  ca::ResponderBehavior behavior;
  behavior.pre_generate = true;
  ca::OcspResponder responder(w.authority, behavior, "ocsp.ext.example", w.rng);
  const auto leaf = w.issue("n4.example");
  const Bytes nonce = {0x01, 0x02};
  const Bytes body = responder.build_response_der(w.id_for(leaf), kNow, nonce);
  const auto strict = ocsp::verify_ocsp_response_static(
      body, w.id_for(leaf), w.authority.intermediate_cert().public_key(),
      nonce);
  EXPECT_EQ(strict.outcome, ocsp::CheckOutcome::kNonceMismatch);
  // A lenient client (no expected nonce) accepts the same response.
  const auto lenient = ocsp::verify_ocsp_response_static(
      body, w.id_for(leaf), w.authority.intermediate_cert().public_key());
  EXPECT_EQ(lenient.outcome, ocsp::CheckOutcome::kOk);
}

TEST(Nonce, WrongEchoRejected) {
  ExtWorld w;
  const auto leaf = w.issue("n5.example");
  ocsp::SingleResponse single;
  single.cert_id = w.id_for(leaf);
  single.status = ocsp::CertStatus::kGood;
  single.this_update = kNow - Duration::hours(1);
  const Bytes body = ocsp::OcspResponseBuilder()
                         .produced_at(kNow)
                         .add_single(single)
                         .nonce({7, 7})
                         .sign(w.authority.intermediate_key())
                         .encode_der();
  const Bytes expected = {8, 8};
  const auto verdict = ocsp::verify_ocsp_response_static(
      body, w.id_for(leaf), w.authority.intermediate_cert().public_key(),
      expected);
  EXPECT_EQ(verdict.outcome, ocsp::CheckOutcome::kNonceMismatch);
}

// ----------------------------------------------------- OCSP over HTTP GET --

TEST(OcspGet, PathRoundTrip) {
  ExtWorld w;
  const auto leaf = w.issue("g.example");
  const auto request = ocsp::OcspRequest::single(w.id_for(leaf));
  const std::string path = request.encode_get_path();
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(path[0], '/');
  auto parsed = ocsp::OcspRequest::parse_get_path(path);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().cert_ids()[0], w.id_for(leaf));
}

TEST(OcspGet, AcceptsStandardBase64Too) {
  ExtWorld w;
  const auto leaf = w.issue("g2.example");
  const auto request = ocsp::OcspRequest::single(w.id_for(leaf));
  const std::string standard =
      "/" + util::base64_encode(request.encode_der());
  auto parsed = ocsp::OcspRequest::parse_get_path(standard);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().cert_ids()[0], w.id_for(leaf));
}

TEST(OcspGet, RejectsGarbagePaths) {
  EXPECT_FALSE(ocsp::OcspRequest::parse_get_path("").ok());
  EXPECT_FALSE(ocsp::OcspRequest::parse_get_path("no-slash").ok());
  EXPECT_FALSE(ocsp::OcspRequest::parse_get_path("/!!!").ok());
  EXPECT_FALSE(ocsp::OcspRequest::parse_get_path("/aGVsbG8=").ok());  // not DER
}

// ------------------------------------------------------ issuer-hash check --

TEST(IssuerHashCheck, ForeignIssuerGetsUnknown) {
  ExtWorld w;
  util::Rng other_rng(505);
  ca::CertificateAuthority other("OtherCA", kNow - Duration::days(900),
                                 other_rng);
  ca::OcspResponder responder(w.authority, ca::ResponderBehavior{},
                              "ocsp.ext.example", w.rng);
  // A certificate issued by ANOTHER CA, asked of w.authority's responder.
  ca::LeafRequest request;
  request.domain = "foreign.example";
  request.not_before = kNow - Duration::days(1);
  request.lifetime = Duration::days(90);
  const auto foreign_leaf = other.issue(request, other_rng);
  const auto foreign_id =
      ocsp::CertId::for_certificate(foreign_leaf, other.intermediate_cert());
  const auto response = responder.build_response(foreign_id, kNow);
  ASSERT_FALSE(response.responses().empty());
  EXPECT_EQ(response.responses()[0].status, ocsp::CertStatus::kUnknown);
}

TEST(IssuerHashCheck, IntermediateViaRootHashesAnswered) {
  // The RFC 6961 path: asking the responder about the INTERMEDIATE, with
  // the ROOT as the CertID issuer.
  ExtWorld w;
  ca::OcspResponder responder(w.authority, ca::ResponderBehavior{},
                              "ocsp.ext.example", w.rng);
  const auto id = ocsp::CertId::for_certificate(
      w.authority.intermediate_cert(), w.authority.root_cert());
  const auto response = responder.build_response(id, kNow);
  ASSERT_FALSE(response.responses().empty());
  EXPECT_EQ(response.responses()[0].status, ocsp::CertStatus::kGood);
}

// ------------------------------------------------------------ multi-staple --

struct MultiStapleWorld : public ExtWorld {
  std::unique_ptr<ca::OcspResponder> responder;
  tls::TlsDirectory directory;
  std::unique_ptr<webserver::WebServer> server;

  MultiStapleWorld() {
    responder = std::make_unique<ca::OcspResponder>(
        authority, ca::ResponderBehavior{}, "ocsp.ext.example", rng);
    responder->install(network);
    webserver::WebServerConfig config;
    config.software = webserver::Software::kIdeal;
    server = std::make_unique<webserver::WebServer>(
        "multi.example", authority.chain_for(issue("multi.example", true)),
        config, network);
    server->enable_multi_staple(authority.root_cert());
    server->install(directory);
    server->start(kNow - Duration::hours(1));
    loop.run_until(kNow);
  }

  tls::HandshakeObservation observe(bool v2) {
    tls::ClientHello hello;
    hello.server_name = "multi.example";
    hello.status_request = true;
    hello.status_request_v2 = v2;
    tls::ServerHello server_hello;
    return tls::observe_handshake(directory, hello, roots, kNow, server_hello);
  }
};

TEST(MultiStaple, WholeChainStapled) {
  MultiStapleWorld w;
  const auto obs = w.observe(/*v2=*/true);
  ASSERT_EQ(obs.staple_chain_checks.size(), 2u);
  EXPECT_TRUE(obs.staple_chain_checks[0].usable());
  EXPECT_EQ(obs.staple_chain_checks[0].status, ocsp::CertStatus::kGood);
  EXPECT_TRUE(obs.staple_chain_checks[1].usable());  // the intermediate
  EXPECT_EQ(obs.staple_chain_checks[1].status, ocsp::CertStatus::kGood);
}

TEST(MultiStaple, NotSentWithoutV2) {
  MultiStapleWorld w;
  const auto obs = w.observe(/*v2=*/false);
  EXPECT_TRUE(obs.staple_chain_checks.empty());
  EXPECT_TRUE(obs.staple_present);  // plain v1 staple still works
}

TEST(MultiStaple, RevokedIntermediateCaughtOnlyByV2) {
  MultiStapleWorld w;
  // Revoke the INTERMEDIATE — invisible to plain stapling (§2.3: "OCSP
  // Stapling only allows the revocation status for the leaf").
  w.authority.revoke(w.authority.intermediate_cert().serial(),
                     kNow - Duration::days(1), crl::ReasonCode::kCaCompromise,
                     ca::RevocationPolicy{});
  // Refresh the server's staples.
  w.loop.run_until(kNow + Duration::days(4));

  browser::BrowserProfile v1_browser;
  v1_browser.name = "Plain";
  v1_browser.os = "any";
  browser::BrowserProfile v2_browser = v1_browser;
  v2_browser.name = "MultiStaple";
  v2_browser.requests_multi_staple = true;

  const auto plain = browser::visit(v1_browser, w.directory, "multi.example",
                                    w.roots, kNow + Duration::days(4));
  const auto multi = browser::visit(v2_browser, w.directory, "multi.example",
                                    w.roots, kNow + Duration::days(4));
  // The leaf itself is fine, so the v1 client accepts...
  EXPECT_EQ(plain.verdict, browser::Verdict::kAccept);
  // ...but the v2 client sees the revoked intermediate.
  EXPECT_EQ(multi.verdict, browser::Verdict::kRejectRevoked);
}

TEST(MultiStaple, V2BrowserAcceptsHealthyChain) {
  MultiStapleWorld w;
  browser::BrowserProfile v2_browser;
  v2_browser.name = "MultiStaple";
  v2_browser.os = "any";
  v2_browser.requests_multi_staple = true;
  const auto result =
      browser::visit(v2_browser, w.directory, "multi.example", w.roots, kNow);
  EXPECT_EQ(result.verdict, browser::Verdict::kAccept);
  EXPECT_TRUE(result.staple_valid);
}

// ------------------------------------------------------------ CRL fallback --

TEST(CrlFallback, DiligentBrowserCatchesRevocationViaCrl) {
  ExtWorld w;
  ca::CrlServer crl_server(w.authority, "crl.ext.example");
  crl_server.install(w.network);
  // Server with stapling OFF and no OCSP reachable: only the CRL can help.
  const auto leaf = w.issue("crlfb.example");
  w.authority.revoke(leaf.serial(), kNow - Duration::days(2),
                     crl::ReasonCode::kKeyCompromise, ca::RevocationPolicy{});
  webserver::WebServerConfig config;
  config.stapling_enabled = false;
  webserver::WebServer server("crlfb.example", w.authority.chain_for(leaf),
                              config, w.network);
  tls::TlsDirectory directory;
  server.install(directory);
  w.loop.run_until(kNow);

  browser::BrowserProfile diligent;
  diligent.name = "CrlChecker";
  diligent.os = "any";
  diligent.checks_crl = true;
  const auto result = browser::visit(diligent, directory, "crlfb.example",
                                     w.roots, kNow, &w.network);
  EXPECT_TRUE(result.downloaded_crl);
  EXPECT_EQ(result.verdict, browser::Verdict::kRejectRevoked);

  // And a good certificate passes via the same path.
  const auto good_leaf = w.issue("crlgood.example");
  webserver::WebServer good_server("crlgood.example",
                                   w.authority.chain_for(good_leaf), config,
                                   w.network);
  good_server.install(directory);
  const auto good = browser::visit(diligent, directory, "crlgood.example",
                                   w.roots, kNow, &w.network);
  EXPECT_TRUE(good.downloaded_crl);
  EXPECT_EQ(good.verdict, browser::Verdict::kAccept);
}

TEST(CrlFallback, LetsEncryptStyleNoCrlMeansSoftFail) {
  // Let's Encrypt supports OCSP only (§5.4 footnote 18): no CRL URL, so
  // even a CRL-checking browser soft-fails when stapling+OCSP are out.
  ExtWorld w;
  ca::LeafRequest request;
  request.domain = "nocrl.example";
  request.not_before = kNow - Duration::days(1);
  request.lifetime = Duration::days(90);
  request.ocsp_urls = {"http://ocsp.unreachable.example/"};
  const auto leaf = w.authority.issue(request, w.rng);
  webserver::WebServerConfig config;
  config.stapling_enabled = false;
  webserver::WebServer server("nocrl.example", w.authority.chain_for(leaf),
                              config, w.network);
  tls::TlsDirectory directory;
  server.install(directory);
  w.loop.run_until(kNow);

  browser::BrowserProfile diligent;
  diligent.name = "CrlChecker";
  diligent.os = "any";
  diligent.checks_crl = true;
  const auto result = browser::visit(diligent, directory, "nocrl.example",
                                     w.roots, kNow, &w.network);
  EXPECT_FALSE(result.downloaded_crl);
  EXPECT_EQ(result.verdict, browser::Verdict::kAcceptSoftFail);
}

}  // namespace
}  // namespace mustaple
