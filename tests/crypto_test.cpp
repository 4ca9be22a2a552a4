// Crypto substrate tests: SHA-256/SHA-1 against FIPS vectors, HMAC against
// RFC 4231, BigInt algebraic properties, RSA sign/verify, and the unified
// signer interface.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/bigint.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signer.hpp"
#include "util/rng.hpp"

namespace mustaple::crypto {
namespace {

using util::Bytes;

// --------------------------------------------------------------- SHA-256 --

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(util::to_hex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(util::to_hex(Sha256::hash(util::bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(util::to_hex(Sha256::hash(util::bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 hasher;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(util::to_hex(hasher.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = util::bytes_of("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 hasher;
    hasher.update(data.data(), split);
    hasher.update(data.data() + split, data.size() - split);
    EXPECT_EQ(hasher.digest(), Sha256::hash(data));
  }
}

// ---------------------------------------------- SHA-256 dispatch paths --

// A guard that restores the dispatcher's own choice no matter how the test
// exits, so a failing dispatch test can't poison later tests.
class ImplGuard {
 public:
  ImplGuard() : saved_(sha256_active_impl()) {}
  ~ImplGuard() { sha256_set_impl(saved_); }

 private:
  Sha256Impl saved_;
};

TEST(Sha256Dispatch, ScalarAndUnrolledAlwaysAvailable) {
  const auto impls = sha256_available_impls();
  EXPECT_NE(std::find(impls.begin(), impls.end(), Sha256Impl::kScalar),
            impls.end());
  EXPECT_NE(std::find(impls.begin(), impls.end(), Sha256Impl::kUnrolled),
            impls.end());
  // The dispatcher's active choice is always one of the available set.
  EXPECT_NE(std::find(impls.begin(), impls.end(), sha256_active_impl()),
            impls.end());
}

TEST(Sha256Dispatch, SetImplHonorsAvailability) {
  ImplGuard guard;
  const auto impls = sha256_available_impls();
  for (Sha256Impl impl : {Sha256Impl::kScalar, Sha256Impl::kUnrolled,
                          Sha256Impl::kAvx2, Sha256Impl::kShaNi}) {
    const bool available =
        std::find(impls.begin(), impls.end(), impl) != impls.end();
    const Sha256Impl before = sha256_active_impl();
    EXPECT_EQ(sha256_set_impl(impl), available) << to_string(impl);
    // On success the switch takes effect; on refusal nothing changes.
    EXPECT_EQ(sha256_active_impl(), available ? impl : before);
  }
}

TEST(Sha256Dispatch, AllImplsMatchNistVectors) {
  ImplGuard guard;
  const struct {
    const char* msg;
    const char* hex;
  } kVectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (Sha256Impl impl : sha256_available_impls()) {
    ASSERT_TRUE(sha256_set_impl(impl)) << to_string(impl);
    for (const auto& v : kVectors) {
      EXPECT_EQ(util::to_hex(Sha256::hash(util::bytes_of(v.msg))), v.hex)
          << to_string(impl) << " msg=" << v.msg;
    }
    // Multi-block incremental input (exercises the no-copy fast path).
    Sha256 hasher;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) hasher.update(chunk);
    EXPECT_EQ(util::to_hex(hasher.digest()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << to_string(impl);
  }
}

TEST(Sha256Dispatch, RandomizedLengthsAgreeAcrossImpls) {
  // Every length from 0 through three blocks + 17 bytes: covers empty
  // input, sub-block tails, exact block boundaries, and the staging-buffer
  // drain + whole-blocks + tail split inside update().
  ImplGuard guard;
  const auto impls = sha256_available_impls();
  util::Rng rng(0x5eed5eed);
  for (std::size_t len = 0; len <= 3 * 64 + 17; ++len) {
    Bytes data(len);
    if (len > 0) rng.fill(data.data(), data.size());
    std::vector<Bytes> digests;
    for (Sha256Impl impl : impls) {
      ASSERT_TRUE(sha256_set_impl(impl));
      // One-shot and an uneven three-way incremental split must agree.
      const Bytes one_shot = Sha256::hash(data);
      Sha256 split;
      const std::size_t a = len / 3;
      const std::size_t b = a + (len - a) / 2;
      split.update(data.data(), a);
      split.update(data.data() + a, b - a);
      split.update(data.data() + b, len - b);
      EXPECT_EQ(split.digest(), one_shot) << to_string(impl) << " len=" << len;
      digests.push_back(one_shot);
    }
    for (std::size_t i = 1; i < digests.size(); ++i) {
      EXPECT_EQ(digests[i], digests[0])
          << "impl " << to_string(impls[i]) << " diverges at len=" << len;
    }
  }
}

TEST(Sha256, UpdateAfterDigestThrows) {
  Sha256 hasher;
  hasher.digest();
  EXPECT_THROW(hasher.update(Bytes{1}), std::logic_error);
  Sha256 hasher2;
  hasher2.digest();
  EXPECT_THROW(hasher2.digest(), std::logic_error);
}

// Boundary lengths around the 64-byte block / 56-byte padding threshold.
class Sha256Boundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256Boundary, MatchesPythonHashlib) {
  // Reference digests for inputs of i bytes of 'x', computed once with a
  // second implementation; spot values pinned here for regression.
  const Bytes input(GetParam(), 'x');
  const Bytes digest = Sha256::hash(input);
  EXPECT_EQ(digest.size(), 32u);
  // Self-consistency: incremental in 1-byte steps must agree.
  Sha256 hasher;
  for (std::uint8_t b : input) hasher.update(&b, 1);
  EXPECT_EQ(hasher.digest(), digest);
}

INSTANTIATE_TEST_SUITE_P(BlockBoundaries, Sha256Boundary,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 127, 128, 129));

// ----------------------------------------------------------------- SHA-1 --

TEST(Sha1, Abc) {
  EXPECT_EQ(util::to_hex(Sha1::hash(util::bytes_of("abc"))),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Empty) {
  EXPECT_EQ(util::to_hex(Sha1::hash({})),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, TwoBlock) {
  EXPECT_EQ(util::to_hex(Sha1::hash(util::bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

// ------------------------------------------------------------------ HMAC --

// Each RFC 4231 vector also runs through one HmacSha256Key: used twice (the
// pads are absorbed once and must survive a MAC) and copied, and both must
// agree with the one-shot hmac_sha256.
void expect_hmac(const Bytes& key, const Bytes& message,
                 const std::string& expected_hex) {
  EXPECT_EQ(util::to_hex(hmac_sha256(key, message)), expected_hex);
  const HmacSha256Key keyed(key);
  EXPECT_EQ(util::to_hex(keyed.mac(message)), expected_hex);
  EXPECT_EQ(util::to_hex(keyed.mac(message)), expected_hex);
  const HmacSha256Key copy = keyed;
  std::uint8_t out[HmacSha256Key::kMacSize];
  copy.mac_to(message, out);
  EXPECT_EQ(util::to_hex(Bytes(out, out + sizeof(out))), expected_hex);
}

TEST(Hmac, Rfc4231Case1) {
  expect_hmac(Bytes(20, 0x0b), util::bytes_of("Hi There"),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  expect_hmac(util::bytes_of("Jefe"),
              util::bytes_of("what do ya want for nothing?"),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  expect_hmac(Bytes(131, 0xaa),
              util::bytes_of(
                  "Test Using Larger Than Block-Size Key - Hash Key First"),
              "60e431591ee0b67f0d8a26aacbf5b77f"
              "8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = util::bytes_of("message");
  EXPECT_NE(hmac_sha256(util::bytes_of("key1"), msg),
            hmac_sha256(util::bytes_of("key2"), msg));
}

// ---------------------------------------------------------------- BigInt --

TEST(BigInt, FromU64) {
  EXPECT_TRUE(BigInt(0).is_zero());
  EXPECT_EQ(BigInt(1).to_u64(), 1u);
  EXPECT_EQ(BigInt(0xffffffffffffffffULL).to_u64(), 0xffffffffffffffffULL);
}

TEST(BigInt, BytesRoundTrip) {
  const Bytes bytes = util::from_hex("0123456789abcdef00112233");
  const BigInt v = BigInt::from_bytes_be(bytes);
  EXPECT_EQ(util::to_hex(v.to_bytes_be()), "0123456789abcdef00112233");
}

TEST(BigInt, LeadingZerosStripped) {
  const BigInt v = BigInt::from_bytes_be(util::from_hex("0000ff"));
  EXPECT_EQ(util::to_hex(v.to_bytes_be()), "ff");
}

TEST(BigInt, PaddedBytes) {
  EXPECT_EQ(BigInt(0x1234).to_bytes_be_padded(4), util::from_hex("00001234"));
  EXPECT_EQ(BigInt(0).to_bytes_be_padded(2), util::from_hex("0000"));
  EXPECT_THROW(BigInt(0x123456).to_bytes_be_padded(2), std::length_error);
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_GT(BigInt(1) + BigInt(0xffffffffffffffffULL), BigInt(5));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigInt, AddSubSmall) {
  EXPECT_EQ((BigInt(100) + BigInt(28)).to_u64(), 128u);
  EXPECT_EQ((BigInt(100) - BigInt(28)).to_u64(), 72u);
  EXPECT_THROW(BigInt(1) - BigInt(2), std::domain_error);
}

TEST(BigInt, CarryPropagation) {
  const BigInt max32(0xffffffffULL);
  EXPECT_EQ((max32 + BigInt(1)).to_u64(), 0x100000000ULL);
  const BigInt max64(0xffffffffffffffffULL);
  const BigInt sum = max64 + BigInt(1);
  EXPECT_EQ(util::to_hex(sum.to_bytes_be()), "010000000000000000");
}

TEST(BigInt, MulSmall) {
  EXPECT_EQ((BigInt(123456) * BigInt(654321)).to_u64(), 80779853376ULL);
  EXPECT_TRUE((BigInt(0) * BigInt(12345)).is_zero());
}

TEST(BigInt, DivModSmall) {
  const auto dm = BigInt::divmod(BigInt(100), BigInt(7));
  EXPECT_EQ(dm.quotient.to_u64(), 14u);
  EXPECT_EQ(dm.remainder.to_u64(), 2u);
  EXPECT_THROW(BigInt::divmod(BigInt(1), BigInt(0)), std::domain_error);
}

TEST(BigInt, ShiftRoundTrip) {
  const BigInt v = BigInt::from_bytes_be(util::from_hex("deadbeefcafebabe"));
  for (std::size_t s : {1u, 7u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(v.shl(s).shr(s), v) << s;
  }
  EXPECT_TRUE(BigInt(1).shr(1).is_zero());
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ(BigInt(1).shl(100).bit_length(), 101u);
}

TEST(BigInt, ModExpKnownValues) {
  // 5^117 mod 19 = 1 (Fermat: 5^18=1, 117 = 6*18+9, 5^9 mod 19 = 1).
  EXPECT_EQ(BigInt::mod_exp(BigInt(5), BigInt(117), BigInt(19)).to_u64(), 1u);
  EXPECT_EQ(BigInt::mod_exp(BigInt(4), BigInt(13), BigInt(497)).to_u64(), 445u);
  EXPECT_EQ(BigInt::mod_exp(BigInt(2), BigInt(0), BigInt(7)).to_u64(), 1u);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)).to_u64(), 12u);
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)).to_u64(), 1u);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_u64(), 5u);
}

TEST(BigInt, ModInverse) {
  // 3 * 7 = 21 = 1 mod 10.
  EXPECT_EQ(BigInt::mod_inverse(BigInt(3), BigInt(10)).to_u64(), 7u);
  // gcd(4, 10) = 2: no inverse.
  EXPECT_TRUE(BigInt::mod_inverse(BigInt(4), BigInt(10)).is_zero());
  // 65537 * 73473 = 4,815,200,001 = 1 (mod 100000).
  EXPECT_EQ(BigInt::mod_inverse(BigInt(65537), BigInt(100000)).to_u64(), 73473u);
}

TEST(BigInt, MillerRabinKnownPrimes) {
  util::Rng rng(1);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 101ULL, 65537ULL, 2147483647ULL}) {
    EXPECT_TRUE(BigInt::is_probable_prime(BigInt(p), 20, rng)) << p;
  }
}

TEST(BigInt, MillerRabinKnownComposites) {
  util::Rng rng(2);
  // Includes Carmichael numbers 561 and 41041.
  for (std::uint64_t c : {1ULL, 4ULL, 100ULL, 561ULL, 41041ULL, 65541ULL,
                          2147483647ULL * 2}) {
    EXPECT_FALSE(BigInt::is_probable_prime(BigInt(c), 20, rng)) << c;
  }
}

TEST(BigInt, GeneratePrimeHasRequestedWidth) {
  util::Rng rng(3);
  const BigInt p = BigInt::generate_prime(96, rng);
  EXPECT_EQ(p.bit_length(), 96u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(BigInt::is_probable_prime(p, 30, rng));
}

// Property suite: algebraic identities over random operands.
class BigIntProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntProperty, AddSubInverse) {
  util::Rng rng(GetParam());
  const BigInt a = BigInt::random_bits(200, rng);
  const BigInt b = BigInt::random_bits(150, rng);
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ((a + b) - a, b);
}

TEST_P(BigIntProperty, MulDivIdentity) {
  util::Rng rng(GetParam() + 1000);
  const BigInt a = BigInt::random_bits(256, rng);
  BigInt b = BigInt::random_bits(120, rng);
  if (b.is_zero()) b = BigInt(1);
  const auto dm = BigInt::divmod(a, b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder, b);
}

TEST_P(BigIntProperty, MulCommutesAndDistributes) {
  util::Rng rng(GetParam() + 2000);
  const BigInt a = BigInt::random_bits(100, rng);
  const BigInt b = BigInt::random_bits(100, rng);
  const BigInt c = BigInt::random_bits(100, rng);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ(a * (b + c), a * b + a * c);
}

TEST_P(BigIntProperty, ModExpMatchesNaive) {
  util::Rng rng(GetParam() + 3000);
  const std::uint64_t base = rng.uniform(1000) + 2;
  const std::uint64_t exp = rng.uniform(24);
  const std::uint64_t mod = rng.uniform(10000) + 2;
  std::uint64_t expected = 1 % mod;
  for (std::uint64_t i = 0; i < exp; ++i) expected = expected * base % mod;
  EXPECT_EQ(
      BigInt::mod_exp(BigInt(base), BigInt(exp), BigInt(mod)).to_u64(),
      expected);
}

TEST_P(BigIntProperty, ModInverseIsInverse) {
  util::Rng rng(GetParam() + 4000);
  const BigInt m = BigInt::generate_prime(64, rng);
  BigInt a = BigInt::random_bits(60, rng);
  if (a.is_zero()) a = BigInt(7);
  const BigInt inv = BigInt::mod_inverse(a, m);
  ASSERT_FALSE(inv.is_zero());
  EXPECT_EQ(((a * inv) % m).to_u64(), 1u);
}

TEST_P(BigIntProperty, BytesRoundTrip) {
  util::Rng rng(GetParam() + 5000);
  const BigInt v = BigInt::random_bits(1 + rng.uniform(300), rng);
  EXPECT_EQ(BigInt::from_bytes_be(v.to_bytes_be()), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(BigIntDivisionStress, AgainstInt128GroundTruth) {
  // 10,000 random 128/64-bit divisions checked against __int128 arithmetic;
  // dividend top limbs are often saturated (0xffffffff) to push Knuth D
  // through its trial-quotient correction and rare add-back branches.
  util::Rng rng(0xd171);
  for (int round = 0; round < 10000; ++round) {
    unsigned __int128 a = (static_cast<unsigned __int128>(rng.next_u64()) << 64) |
                          rng.next_u64();
    if (round % 3 == 0) {
      // Saturate the top 32 bits to stress the qhat clamp.
      a |= static_cast<unsigned __int128>(0xffffffffULL) << 96;
    }
    std::uint64_t b = rng.next_u64();
    if (round % 5 == 0) b |= 0xffffffff00000000ULL;  // big divisor
    if (b == 0) b = 1;

    util::Bytes a_bytes(16);
    for (int i = 0; i < 16; ++i) {
      a_bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(a >> (120 - 8 * i));
    }
    const BigInt big_a = BigInt::from_bytes_be(a_bytes);
    const BigInt big_b(b);
    const auto dm = BigInt::divmod(big_a, big_b);

    const unsigned __int128 q = a / b;
    const unsigned __int128 r = a % b;
    util::Bytes q_bytes(16);
    for (int i = 0; i < 16; ++i) {
      q_bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(q >> (120 - 8 * i));
    }
    ASSERT_EQ(dm.quotient, BigInt::from_bytes_be(q_bytes)) << "round " << round;
    ASSERT_EQ(dm.remainder.to_u64(), static_cast<std::uint64_t>(r))
        << "round " << round;
  }
}

TEST(BigIntDivisionStress, WideOperandsIdentity) {
  // Wider random divisions (up to 1024/512 bits) hold the Euclidean
  // identity; complements the __int128 cross-check above.
  util::Rng rng(0xbead);
  for (int round = 0; round < 500; ++round) {
    const std::size_t a_bits = 64 + rng.uniform(960);
    const std::size_t b_bits = 32 + rng.uniform(a_bits);
    const BigInt a = BigInt::random_bits(a_bits, rng);
    BigInt b = BigInt::random_bits(b_bits, rng);
    if (b.is_zero()) b = BigInt(3);
    const auto dm = BigInt::divmod(a, b);
    ASSERT_EQ(dm.quotient * b + dm.remainder, a) << "round " << round;
    ASSERT_LT(dm.remainder, b) << "round " << round;
  }
}

// ------------------------------------------------------------------- RSA --

class RsaFixture : public ::testing::Test {
 protected:
  static const RsaKeyPair& key() {
    static const RsaKeyPair kp = [] {
      util::Rng rng(424242);
      return RsaKeyPair::generate(512, rng);
    }();
    return kp;
  }
};

TEST_F(RsaFixture, SignVerifyRoundTrip) {
  const Bytes msg = util::bytes_of("attack at dawn");
  const Bytes sig = rsa_sign_sha256(key(), msg);
  EXPECT_EQ(sig.size(), key().public_key.modulus_bytes());
  EXPECT_TRUE(rsa_verify_sha256(key().public_key, msg, sig));
}

TEST_F(RsaFixture, TamperedMessageFails) {
  const Bytes msg = util::bytes_of("attack at dawn");
  const Bytes sig = rsa_sign_sha256(key(), msg);
  EXPECT_FALSE(rsa_verify_sha256(key().public_key,
                                 util::bytes_of("attack at dusk"), sig));
}

TEST_F(RsaFixture, TamperedSignatureFails) {
  const Bytes msg = util::bytes_of("m");
  Bytes sig = rsa_sign_sha256(key(), msg);
  sig[5] ^= 0x01;
  EXPECT_FALSE(rsa_verify_sha256(key().public_key, msg, sig));
}

TEST_F(RsaFixture, WrongLengthSignatureFails) {
  const Bytes msg = util::bytes_of("m");
  Bytes sig = rsa_sign_sha256(key(), msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify_sha256(key().public_key, msg, sig));
}

TEST_F(RsaFixture, WrongKeyFails) {
  util::Rng rng(777);
  const RsaKeyPair other = RsaKeyPair::generate(512, rng);
  const Bytes msg = util::bytes_of("m");
  const Bytes sig = rsa_sign_sha256(key(), msg);
  EXPECT_FALSE(rsa_verify_sha256(other.public_key, msg, sig));
}

TEST_F(RsaFixture, PublicKeyDerRoundTrip) {
  const Bytes der = key().public_key.encode_der();
  const RsaPublicKey decoded = RsaPublicKey::decode_der(der);
  EXPECT_EQ(decoded.modulus, key().public_key.modulus);
  EXPECT_EQ(decoded.public_exponent, key().public_key.public_exponent);
}

TEST_F(RsaFixture, DeterministicSignature) {
  const Bytes msg = util::bytes_of("same message");
  EXPECT_EQ(rsa_sign_sha256(key(), msg), rsa_sign_sha256(key(), msg));
}

TEST(Rsa, RejectsTinyModulus) {
  util::Rng rng(1);
  EXPECT_THROW(RsaKeyPair::generate(128, rng), std::invalid_argument);
}

// ---------------------------------------------------------------- Signer --

TEST(Signer, SimKeySignVerify) {
  util::Rng rng(5);
  const KeyPair kp = KeyPair::generate_sim(rng);
  const Bytes msg = util::bytes_of("payload");
  const Bytes sig = kp.sign(msg);
  EXPECT_TRUE(kp.public_key().verify(msg, sig));
  EXPECT_FALSE(kp.public_key().verify(util::bytes_of("other"), sig));
}

TEST(Signer, SimKeysAreDistinct) {
  util::Rng rng(6);
  const KeyPair a = KeyPair::generate_sim(rng);
  const KeyPair b = KeyPair::generate_sim(rng);
  const Bytes msg = util::bytes_of("m");
  EXPECT_FALSE(b.public_key().verify(msg, a.sign(msg)));
}

TEST(Signer, RsaThroughInterface) {
  util::Rng rng(7);
  const KeyPair kp = KeyPair::generate_rsa(512, rng);
  EXPECT_EQ(kp.algorithm(), SignatureAlgorithm::kRsaSha256);
  const Bytes msg = util::bytes_of("interface message");
  EXPECT_TRUE(kp.public_key().verify(msg, kp.sign(msg)));
}

TEST(Signer, PublicKeyWireRoundTrip) {
  util::Rng rng(8);
  const KeyPair kp = KeyPair::generate_sim(rng);
  auto decoded = PublicKey::decode(kp.public_key().encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), kp.public_key());
}

TEST(Signer, PublicKeyDecodeRejectsGarbage) {
  EXPECT_FALSE(PublicKey::decode({}).ok());
  EXPECT_FALSE(PublicKey::decode({0x77, 1, 2, 3}).ok());
}

TEST(Signer, CrossAlgorithmVerifyFails) {
  util::Rng rng(9);
  const KeyPair sim = KeyPair::generate_sim(rng);
  const KeyPair rsa = KeyPair::generate_rsa(512, rng);
  const Bytes msg = util::bytes_of("m");
  EXPECT_FALSE(rsa.public_key().verify(msg, sim.sign(msg)));
  EXPECT_FALSE(sim.public_key().verify(msg, rsa.sign(msg)));
}

}  // namespace
}  // namespace mustaple::crypto
