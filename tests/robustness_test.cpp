// Parser robustness properties. The measurement client's whole §5.3
// classification rests on parsers that NEVER crash on hostile bytes — they
// must classify. These tests throw random buffers, truncations, and byte
// mutations at every parser in the wire-format stack.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "ca/authority.hpp"
#include "crl/crl.hpp"
#include "net/http.hpp"
#include "ocsp/request.hpp"
#include "ocsp/response.hpp"
#include "util/base64.hpp"
#include "x509/certificate.hpp"

namespace mustaple {
namespace {

using util::Bytes;
using util::Duration;
using util::SimTime;

const SimTime kNow = util::make_time(2018, 5, 1);

struct Artifacts {
  util::Rng rng{1234};
  crypto::KeyPair key = crypto::KeyPair::generate_sim(rng);
  x509::Certificate cert;
  crl::Crl crl;
  ocsp::OcspResponse response;
  Bytes request_der;

  Artifacts() {
    cert = x509::CertificateBuilder()
               .serial_number(42)
               .subject(x509::DistinguishedName{"fuzz.example", "", ""})
               .issuer(x509::DistinguishedName{"Fuzz CA", "F", "US"})
               .validity(kNow - Duration::days(1), kNow + Duration::days(1))
               .public_key(key.public_key())
               .add_ocsp_url("http://ocsp.fuzz.example/")
               .must_staple(true)
               .sign(key);
    crl::CrlBuilder crl_builder;
    crl_builder.issuer(x509::DistinguishedName{"Fuzz CA", "F", "US"})
        .this_update(kNow)
        .next_update(kNow + Duration::days(7))
        .add_entry({{0x11, 0x22}, kNow, crl::ReasonCode::kKeyCompromise});
    crl = crl_builder.sign(key);
    ocsp::SingleResponse single;
    single.cert_id.issuer_name_hash.assign(20, 0xaa);
    single.cert_id.issuer_key_hash.assign(20, 0xbb);
    single.cert_id.serial = {0x42};
    single.status = ocsp::CertStatus::kGood;
    single.this_update = kNow;
    single.next_update = kNow + Duration::days(7);
    response = ocsp::OcspResponseBuilder()
                   .produced_at(kNow)
                   .add_single(single)
                   .sign(key);
    ocsp::CertId id = single.cert_id;
    request_der = ocsp::OcspRequest::single(id).encode_der();
  }
};

Artifacts& artifacts() {
  static Artifacts a;
  return a;
}

/// The OCSPRequest view traversal and the owning parse built on it accept
/// and reject the same bytes, with the same error code, and read the same
/// CertIDs and nonce.
void expect_request_parses_agree(const Bytes& data) {
  const auto owning = ocsp::OcspRequest::parse(data);
  const auto view = ocsp::OcspRequestView::parse(data);
  ASSERT_EQ(owning.ok(), view.ok()) << util::to_hex(data);
  if (!owning.ok()) {
    EXPECT_EQ(owning.error().code, view.error().code) << util::to_hex(data);
    return;
  }
  std::vector<ocsp::CertId> viewed;
  view.value().for_each_cert_id([&viewed](const ocsp::CertIdView& id) {
    viewed.push_back(id.to_cert_id());
  });
  EXPECT_EQ(viewed, owning.value().cert_ids());
  ASSERT_FALSE(viewed.empty());
  EXPECT_EQ(view.value().first_cert_id().to_cert_id(), viewed.front());
  ASSERT_EQ(view.value().nonce().has_value(),
            owning.value().nonce().has_value());
  if (view.value().nonce()) {
    EXPECT_EQ(view.value().nonce()->to_bytes(), *owning.value().nonce());
  }
}

/// Feeds a buffer to every parser; the only acceptable outcomes are a
/// successful parse or an error Result — no exceptions, no crashes.
void exercise_all_parsers(const Bytes& data) {
  expect_request_parses_agree(data);
  EXPECT_NO_THROW({
    (void)x509::Certificate::parse(data);
    (void)crl::Crl::parse(data);
    (void)ocsp::OcspResponse::parse(data);
    (void)ocsp::OcspRequest::parse(data);
    (void)net::HttpRequest::parse(data);
    (void)net::HttpResponse::parse(data);
    (void)asn1::Oid::decode_content(data);
    (void)crypto::PublicKey::decode(data);
    (void)util::base64_decode(util::text_of(data));
  });
}

// ------------------------------------------------------- random-byte fuzz --

class RandomBytesFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomBytesFuzz, NoParserCrashes) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    Bytes data(rng.uniform(512));
    rng.fill(data.data(), data.size());
    exercise_all_parsers(data);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesFuzz,
                         ::testing::Range<std::uint64_t>(0, 16));

// DER-shaped fuzz: buffers that START like plausible TLV to reach deeper
// parser states.
class DerShapedFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DerShapedFuzz, NoParserCrashes) {
  util::Rng rng(GetParam() * 31 + 7);
  static constexpr std::uint8_t kTags[] = {0x30, 0x31, 0x02, 0x04, 0x06,
                                           0x03, 0x05, 0xa0, 0xa3, 0x17,
                                           0x18, 0x0a, 0x01};
  for (int round = 0; round < 50; ++round) {
    Bytes data;
    const std::size_t chunks = 1 + rng.uniform(6);
    for (std::size_t c = 0; c < chunks; ++c) {
      data.push_back(kTags[rng.uniform(sizeof(kTags))]);
      const std::size_t len = rng.uniform(40);
      data.push_back(static_cast<std::uint8_t>(len));
      for (std::size_t i = 0; i < len; ++i) {
        data.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      }
    }
    exercise_all_parsers(data);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DerShapedFuzz,
                         ::testing::Range<std::uint64_t>(0, 16));

// ---------------------------------------------------------- truncation sweep --

TEST(TruncationSweep, CertificateNeverCrashes) {
  const Bytes der = artifacts().cert.encode_der();
  for (std::size_t cut = 0; cut < der.size(); ++cut) {
    Bytes truncated(der.begin(), der.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_NO_THROW({
      auto result = x509::Certificate::parse(truncated);
      EXPECT_FALSE(result.ok()) << "truncated at " << cut;
    });
  }
}

TEST(TruncationSweep, OcspResponseNeverCrashes) {
  const Bytes der = artifacts().response.encode_der();
  for (std::size_t cut = 0; cut < der.size(); ++cut) {
    Bytes truncated(der.begin(), der.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_NO_THROW({
      auto result = ocsp::OcspResponse::parse(truncated);
      EXPECT_FALSE(result.ok()) << "truncated at " << cut;
    });
  }
}

TEST(TruncationSweep, CrlNeverCrashes) {
  const Bytes der = artifacts().crl.encode_der();
  for (std::size_t cut = 0; cut < der.size(); cut += 3) {
    Bytes truncated(der.begin(), der.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_NO_THROW({
      auto result = crl::Crl::parse(truncated);
      EXPECT_FALSE(result.ok());
    });
  }
}

TEST(TruncationSweep, OcspRequestNeverCrashes) {
  const Bytes& der = artifacts().request_der;
  for (std::size_t cut = 0; cut < der.size(); ++cut) {
    Bytes truncated(der.begin(), der.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_NO_THROW({
      auto result = ocsp::OcspRequest::parse(truncated);
      EXPECT_FALSE(result.ok());
    });
    expect_request_parses_agree(truncated);
  }
}

// Hand-built requests for the shapes random bytes rarely reach: a
// requestList of `cert_ids` CertIDs and the given extensions, each an OID's
// raw content octets (well-formed or not) and an OCTET STRING value.
Bytes request_with(std::size_t cert_ids,
                   const std::vector<std::pair<Bytes, Bytes>>& extensions) {
  asn1::Writer w;
  w.sequence([&](asn1::Writer& request) {
    request.sequence([&](asn1::Writer& tbs) {
      tbs.sequence([&](asn1::Writer& list) {
        for (std::size_t i = 0; i < cert_ids; ++i) {
          ocsp::CertId id;
          id.issuer_name_hash.assign(20, 0xaa);
          id.issuer_key_hash.assign(20, 0xbb);
          id.serial = {0x42, static_cast<std::uint8_t>(i)};
          list.sequence([&](asn1::Writer& single) {
            ocsp::encode_cert_id(single, id);
          });
        }
      });
      if (extensions.empty()) return;
      tbs.explicit_context(2, [&](asn1::Writer& wrapper) {
        wrapper.sequence([&](asn1::Writer& exts) {
          for (const auto& [oid_content, value] : extensions) {
            exts.sequence([&](asn1::Writer& ext) {
              ext.tlv(static_cast<std::uint8_t>(asn1::Tag::kOid), oid_content);
              ext.octet_string(value);
            });
          }
        });
      });
    });
  });
  return w.take();
}

TEST(RequestParses, ViewAndOwningAgreeOnEveryShape) {
  Bytes nonce_oid;
  asn1::oids::ocsp_nonce().append_content(nonce_oid);
  Bytes other_oid;  // id-pkix-ocsp-response, 1.3.6.1.5.5.7.48.1.4
  asn1::Oid{1, 3, 6, 1, 5, 5, 7, 48, 1, 4}.append_content(other_oid);
  const Bytes truncated_oid = {0x2b, 0x06, 0x81};  // last arc never ends
  const Bytes nonce_a = util::from_hex("0102030405060708090a0b0c0d0e0f10");
  const Bytes nonce_b = util::from_hex("ffee");

  struct Shape {
    const char* name;
    Bytes der;
    const char* error;  ///< nullptr: accepted
    std::size_t cert_ids;
    std::optional<Bytes> nonce;
  };
  const std::vector<Shape> shapes = {
      {"no CertIDs", request_with(0, {}), "ocsp.request.empty", 0, {}},
      {"one CertID", request_with(1, {}), nullptr, 1, {}},
      {"three CertIDs", request_with(3, {}), nullptr, 3, {}},
      {"nonce", request_with(1, {{nonce_oid, nonce_a}}), nullptr, 1, nonce_a},
      {"other extension", request_with(1, {{other_oid, nonce_a}}), nullptr, 1,
       {}},
      {"other extension then nonce",
       request_with(3, {{other_oid, nonce_b}, {nonce_oid, nonce_a}}), nullptr,
       3, nonce_a},
      {"two nonces, the last kept",
       request_with(1, {{nonce_oid, nonce_a}, {nonce_oid, nonce_b}}), nullptr,
       1, nonce_b},
      {"malformed extension OID",
       request_with(1, {{truncated_oid, nonce_a}}), "oid.truncated_arc", 1,
       {}},
      {"empty extension OID", request_with(1, {{Bytes{}, nonce_a}}),
       "oid.empty_content", 1, {}},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    expect_request_parses_agree(shape.der);
    const auto view = ocsp::OcspRequestView::parse(shape.der);
    if (shape.error != nullptr) {
      ASSERT_FALSE(view.ok());
      EXPECT_EQ(view.error().code, shape.error);
      continue;
    }
    ASSERT_TRUE(view.ok()) << view.error().to_string();
    std::size_t count = 0;
    view.value().for_each_cert_id([&count](const ocsp::CertIdView& id) {
      EXPECT_EQ(id.serial.to_bytes(),
                (Bytes{0x42, static_cast<std::uint8_t>(count)}));
      ++count;
    });
    EXPECT_EQ(count, shape.cert_ids);
    EXPECT_EQ(view.value().first_cert_id().serial.to_bytes(),
              (Bytes{0x42, 0x00}));
    ASSERT_EQ(view.value().nonce().has_value(), shape.nonce.has_value());
    if (shape.nonce) EXPECT_EQ(view.value().nonce()->to_bytes(), *shape.nonce);
  }
}

// -------------------------------------------------------- mutation (bit-flip) --

TEST(MutationSweep, CertificateFlipNeverForgesAuthenticatedContent) {
  // Property: any single-byte corruption either fails to parse, or fails
  // signature verification, or — when it only touched the UNAUTHENTICATED
  // envelope (X.509's signature covers the TBS alone) — left the
  // authenticated TBS bytes untouched. No flip may alter signed content
  // and still verify.
  const Bytes original = artifacts().cert.encode_der();
  const Bytes& original_tbs = artifacts().cert.tbs_der();
  const crypto::PublicKey& key = artifacts().key.public_key();
  std::size_t envelope_malleable = 0;
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    Bytes mutated = original;
    mutated[pos] ^= 0x01;
    EXPECT_NO_THROW({
      auto parsed = x509::Certificate::parse(mutated);
      if (parsed.ok() && parsed.value().verify_signature(key)) {
        ++envelope_malleable;
        EXPECT_EQ(parsed.value().tbs_der(), original_tbs)
            << "flip at byte " << pos << " forged authenticated content";
      }
    });
  }
  // The RFC 5280 inner/outer algorithm check pins the algorithm OID, so
  // only a handful of envelope bytes (NULL params etc.) remain malleable.
  EXPECT_LT(envelope_malleable, 8u);
}

TEST(MutationSweep, OcspResponseFlipNeverForgesAuthenticatedContent) {
  const Bytes original = artifacts().response.encode_der();
  const Bytes& original_tbs = artifacts().response.tbs_der();
  const crypto::PublicKey& key = artifacts().key.public_key();
  for (std::size_t pos = 0; pos < original.size(); ++pos) {
    Bytes mutated = original;
    mutated[pos] ^= 0x01;
    EXPECT_NO_THROW({
      auto parsed = ocsp::OcspResponse::parse(mutated);
      if (parsed.ok() && parsed.value().successful() &&
          parsed.value().verify_signature(key)) {
        EXPECT_EQ(parsed.value().tbs_der(), original_tbs)
            << "flip at byte " << pos << " forged authenticated content";
      }
    });
  }
}

// -------------------------------------------------- re-encode stability --

TEST(ReencodeStability, CertificateBytesStable) {
  const Bytes der = artifacts().cert.encode_der();
  auto parsed = x509::Certificate::parse(der);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().encode_der(), der);
}

TEST(ReencodeStability, CrlBytesStable) {
  const Bytes der = artifacts().crl.encode_der();
  auto parsed = crl::Crl::parse(der);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().encode_der(), der);
}

TEST(ReencodeStability, OcspResponseBytesStable) {
  const Bytes der = artifacts().response.encode_der();
  auto parsed = ocsp::OcspResponse::parse(der);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().encode_der(), der);
}

// ------------------------------------------------------ determinism property --

TEST(Determinism, SameSeedSameWorld) {
  // Two independently constructed CAs from identical seeds produce
  // byte-identical artifacts — the property every experiment rests on.
  util::Rng rng_a(777);
  util::Rng rng_b(777);
  ca::CertificateAuthority a("DetCA", kNow - Duration::days(100), rng_a);
  ca::CertificateAuthority b("DetCA", kNow - Duration::days(100), rng_b);
  EXPECT_EQ(a.root_cert().encode_der(), b.root_cert().encode_der());
  ca::LeafRequest request;
  request.domain = "det.example";
  request.not_before = kNow;
  const auto leaf_a = a.issue(request, rng_a);
  const auto leaf_b = b.issue(request, rng_b);
  EXPECT_EQ(leaf_a.encode_der(), leaf_b.encode_der());
}

}  // namespace
}  // namespace mustaple
