// DER codec tests: every value type round-trips; malformed input is
// rejected with classified errors (this is the machinery behind the paper's
// "ASN.1 Unparseable" bucket).
#include <gtest/gtest.h>

#include "asn1/der.hpp"
#include "asn1/oid.hpp"
#include "crl/crl.hpp"
#include "ocsp/response.hpp"
#include "util/bytes.hpp"
#include "x509/certificate.hpp"

namespace mustaple::asn1 {
namespace {

using util::Bytes;

// ------------------------------------------------------------------ OID --

TEST(Oid, ToString) {
  EXPECT_EQ(oids::tls_feature().to_string(), "1.3.6.1.5.5.7.1.24");
  EXPECT_EQ(oids::sha256_with_rsa().to_string(), "1.2.840.113549.1.1.11");
}

TEST(Oid, ParseValid) {
  auto oid = Oid::parse("1.3.6.1.5.5.7.1.24");
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(oid.value(), oids::tls_feature());
}

TEST(Oid, ParseRejectsMalformed) {
  EXPECT_FALSE(Oid::parse("").ok());
  EXPECT_FALSE(Oid::parse("1").ok());
  EXPECT_FALSE(Oid::parse("1..2").ok());
  EXPECT_FALSE(Oid::parse("1.a.2").ok());
  EXPECT_FALSE(Oid::parse("3.1").ok());    // first arc > 2
  EXPECT_FALSE(Oid::parse("1.40").ok());   // second arc > 39 for first < 2
  EXPECT_FALSE(Oid::parse("1.2.4294967296").ok());  // arc overflow
}

TEST(Oid, KnownEncoding) {
  // 1.2.840.113549 encodes as 2a 86 48 86 f7 0d.
  auto oid = Oid::parse("1.2.840.113549");
  ASSERT_TRUE(oid.ok());
  Bytes content;
  oid.value().append_content(content);
  EXPECT_EQ(util::to_hex(content), "2a864886f70d");
}

TEST(Oid, DecodeRejectsTruncatedArc) {
  // High bit set on final byte = unterminated base-128 arc.
  EXPECT_FALSE(Oid::decode_content({0x2a, 0x86}).ok());
}

TEST(Oid, DecodeRejectsEmpty) {
  EXPECT_FALSE(Oid::decode_content(Bytes{}).ok());
}

TEST(Oid, DecodeRejectsLeadingZeroSeptet) {
  EXPECT_FALSE(Oid::decode_content({0x2a, 0x80, 0x01}).ok());
}

class OidRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(OidRoundTrip, EncodeDecode) {
  auto oid = Oid::parse(GetParam());
  ASSERT_TRUE(oid.ok());
  Bytes content;
  oid.value().append_content(content);
  auto decoded = Oid::decode_content(content);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), oid.value());
  EXPECT_EQ(decoded.value().to_string(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    WellKnown, OidRoundTrip,
    ::testing::Values("1.3.6.1.5.5.7.1.24", "1.3.6.1.5.5.7.48.1",
                      "2.5.29.31", "2.5.29.19", "2.5.4.3",
                      "1.2.840.113549.1.1.11", "2.16.840.1.101.3.4.2.1",
                      "1.3.14.3.2.26", "0.9.2342.19200300.100.1.25",
                      "2.5.4.6", "1.3.6.1.4.1.99999.1"));

// ----------------------------------------------------------- DER writer --

TEST(DerWriter, ShortFormLength) {
  Writer w;
  w.octet_string(Bytes(10, 0xaa));
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[1], 10);
}

TEST(DerWriter, LongFormLength) {
  Writer w;
  w.octet_string(Bytes(300, 0xbb));
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[1], 0x82);  // two length octets
  EXPECT_EQ(w.bytes()[2], 0x01);
  EXPECT_EQ(w.bytes()[3], 0x2c);
}

TEST(DerWriter, BooleanEncoding) {
  Writer w;
  w.boolean(true);
  w.boolean(false);
  EXPECT_EQ(util::to_hex(w.bytes()), "0101ff010100");
}

TEST(DerWriter, IntegerMinimalEncoding) {
  struct Case {
    std::int64_t value;
    const char* hex;
  };
  const Case cases[] = {
      {0, "020100"},       {1, "020101"},     {127, "02017f"},
      {128, "02020080"},   {256, "02020100"}, {-1, "0201ff"},
      {-128, "020180"},    {-129, "0202ff7f"},
  };
  for (const Case& c : cases) {
    Writer w;
    w.integer(c.value);
    EXPECT_EQ(util::to_hex(w.bytes()), c.hex) << c.value;
  }
}

TEST(DerWriter, IntegerBytesStripsAndPads) {
  {
    Writer w;
    w.integer_bytes({0x00, 0x00, 0x01});  // redundant leading zeros
    EXPECT_EQ(util::to_hex(w.bytes()), "020101");
  }
  {
    Writer w;
    w.integer_bytes({0xff});  // high bit set -> 0x00 pad
    EXPECT_EQ(util::to_hex(w.bytes()), "020200ff");
  }
  {
    Writer w;
    w.integer_bytes({});  // empty -> zero
    EXPECT_EQ(util::to_hex(w.bytes()), "020100");
  }
}

TEST(DerWriter, NullAndOid) {
  Writer w;
  w.null();
  w.oid(oids::sha1());
  EXPECT_EQ(util::to_hex(w.bytes()), "05000605" + std::string("2b0e03021a"));
}

TEST(DerWriter, BitStringPrependsUnusedBits) {
  Writer w;
  w.bit_string({0xde, 0xad}, 3);
  EXPECT_EQ(util::to_hex(w.bytes()), "030303dead");
}

TEST(DerWriter, NestedSequences) {
  Writer w;
  w.sequence([](Writer& outer) {
    outer.integer(1);
    outer.sequence([](Writer& inner) { inner.boolean(true); });
  });
  EXPECT_EQ(util::to_hex(w.bytes()), "30080201013003" + std::string("0101ff"));
}

TEST(DerWriter, ContextTags) {
  EXPECT_EQ(context_tag(0, true), 0xa0);
  EXPECT_EQ(context_tag(0, false), 0x80);
  EXPECT_EQ(context_tag(3, true), 0xa3);
  EXPECT_EQ(context_tag(6, false), 0x86);
}

TEST(DerWriter, ExplicitContextWraps) {
  Writer w;
  w.explicit_context(0, [](Writer& inner) { inner.integer(2); });
  EXPECT_EQ(util::to_hex(w.bytes()), "a003020102");
}

TEST(DerWriter, BackPatchedLengthsAtFormBoundaries) {
  // SEQUENCE { INTEGER 7, SEQUENCE { <n content bytes> }, BOOLEAN TRUE }:
  // the inner length is patched first, and when its long form shifts the
  // content right the outer length must count the extra octets too.
  struct Case {
    std::size_t content;
    const char* outer_header;  // outer content = 3 + inner TLV + 3
    const char* inner_header;
  };
  const Case cases[] = {
      {127, "308187", "307f"},               // 3 + 2 + 127 + 3 = 135
      {128, "308189", "308180"},             // 3 + 3 + 128 + 3 = 137
      {255, "30820108", "3081ff"},           // 3 + 3 + 255 + 3 = 264
      {256, "3082010a", "30820100"},         // 3 + 4 + 256 + 3 = 266
      {65535, "3083010009", "3082ffff"},     // 3 + 4 + 65535 + 3 = 65545
      {65536, "308301000b", "3083010000"},   // 3 + 5 + 65536 + 3 = 65547
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.content);
    const Bytes content(c.content, 0xab);
    Writer w;
    w.sequence([&](Writer& outer) {
      outer.integer(7);
      outer.sequence([&](Writer& inner) { inner.raw(content); });
      outer.boolean(true);
    });
    Bytes expected = util::from_hex(std::string(c.outer_header) + "020107" +
                                    c.inner_header);
    util::append(expected, content);
    util::append(expected, util::from_hex("0101ff"));
    EXPECT_EQ(util::to_hex(Bytes(w.bytes().begin(),
                                 w.bytes().begin() + 12)),
              util::to_hex(Bytes(expected.begin(), expected.begin() + 12)));
    EXPECT_TRUE(w.bytes() == expected);
  }
}

TEST(DerWriter, LongFormInsideLongFormThreeDeep) {
  // [0] { SEQUENCE { OCTET STRING (300 bytes) } }: every level needs two
  // length octets, so each close() shifts content already shifted once.
  Writer w;
  w.explicit_context(0, [](Writer& ctx) {
    ctx.sequence([](Writer& seq) { seq.octet_string(Bytes(300, 0x11)); });
  });
  Bytes expected = util::from_hex("a0820134" "30820130" "0482012c");
  util::append(expected, Bytes(300, 0x11));
  EXPECT_TRUE(w.bytes() == expected);
}

TEST(DerWriter, EmptySequences) {
  Writer w;
  w.sequence([](Writer&) {});
  w.sequence([](Writer& outer) { outer.sequence([](Writer&) {}); });
  w.set([](Writer&) {});
  EXPECT_EQ(util::to_hex(w.bytes()), "3000" "30023000" "3100");
}

TEST(DerWriter, NestedBodiesWriteIntoTheSameBuffer) {
  // One buffer, no scratch Writer per level: the body is handed the very
  // Writer it nests in, so it must write only through that argument.
  Writer w;
  w.sequence([&](Writer& inner) {
    EXPECT_EQ(&inner, &w);
    inner.null();
  });
  EXPECT_EQ(util::to_hex(w.bytes()), "30020500");
}

TEST(DerWriter, TakeTrimsCapacityToSize) {
  Writer w;
  w.sequence([](Writer& seq) {
    for (int i = 0; i < 100; ++i) seq.integer(i * 1000);
    seq.octet_string(Bytes(200, 0x22));  // forces a long-form shift
  });
  const std::size_t size = w.bytes().size();
  const Bytes der = w.take();
  EXPECT_EQ(der.size(), size);
  EXPECT_EQ(der.capacity(), der.size());
}

// ----------------------------------------------------------- DER reader --

TEST(DerReader, ReadsWhatWriterWrote) {
  Writer w;
  w.sequence([](Writer& seq) {
    seq.integer(42);
    seq.boolean(true);
    seq.utf8_string("hello");
    seq.octet_string({1, 2, 3});
    seq.oid(oids::aia_ocsp());
    seq.null();
    seq.generalized_time(util::make_time(2018, 5, 1, 12, 0, 0));
    seq.enumerated(3);
  });
  const Bytes der = w.take();

  Reader top(der);
  auto seq = top.expect(Tag::kSequence);
  ASSERT_TRUE(seq.ok());
  Reader r(seq.value().content);
  EXPECT_EQ(r.read_integer().value(), 42);
  EXPECT_EQ(r.read_boolean().value(), true);
  EXPECT_EQ(r.read_string().value(), "hello");
  EXPECT_EQ(r.read_octet_string().value(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.read_oid().value(), oids::aia_ocsp());
  ASSERT_TRUE(r.expect(Tag::kNull).ok());
  EXPECT_EQ(r.read_generalized_time().value(),
            util::make_time(2018, 5, 1, 12, 0, 0));
  EXPECT_EQ(r.read_enumerated().value(), 3);
  EXPECT_TRUE(r.at_end());
}

TEST(DerReader, RejectsTruncatedHeader) {
  const Bytes empty;
  Reader r(empty);
  EXPECT_FALSE(r.read_any().ok());
  const Bytes just_tag = {0x30};
  Reader r2(just_tag);
  EXPECT_FALSE(r2.read_any().ok());
}

TEST(DerReader, RejectsTruncatedContent) {
  const Bytes der = {0x04, 0x05, 0x01, 0x02};  // claims 5, has 2
  Reader r(der);
  auto result = r.read_any();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.truncated");
}

TEST(DerReader, RejectsIndefiniteLength) {
  const Bytes der = {0x30, 0x80, 0x00, 0x00};
  Reader r(der);
  auto result = r.read_any();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.indefinite_length");
}

TEST(DerReader, RejectsNonMinimalLength) {
  const Bytes der = {0x04, 0x81, 0x03, 0x01, 0x02, 0x03};  // long form for 3
  Reader r(der);
  auto result = r.read_any();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.non_minimal_length");
}

TEST(DerReader, RejectsTruncatedLengthOfLength) {
  // Header claims four length octets but the buffer ends immediately.
  const Bytes der = {0x30, 0x84, 0x00};
  Reader r(der);
  auto result = r.read_any();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.truncated");
}

TEST(DerReader, RejectsOversizedLengthOfLength) {
  // Nine length octets cannot fit in a size_t; classified, not crashed.
  Bytes der = {0x30, 0x89};
  der.insert(der.end(), 9, 0xff);
  Reader r(der);
  auto result = r.read_any();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.bad_length");
}

TEST(DerReader, RejectsLeadingZeroLongFormLength) {
  // 0x82 0x00 0x85: the value 133 fits in one length octet, so the leading
  // zero makes this a non-minimal (BER, not DER) encoding.
  Bytes der = {0x04, 0x82, 0x00, 0x85};
  der.insert(der.end(), 133, 0xab);
  Reader r(der);
  auto result = r.read_any();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.non_minimal_length");
}

TEST(DerReader, RejectsHugeClaimedLength) {
  // Length decodes fine (2^32) but vastly exceeds the remaining buffer.
  const Bytes der = {0x30, 0x85, 0x01, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01};
  Reader r(der);
  auto result = r.read_any();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.truncated");
}

// Build a SEQUENCE nested `depth` levels deep, innermost-out, without using
// Writer recursion. Each level is small, so headers stay short-form.
Bytes deeply_nested_sequence(std::size_t depth) {
  Bytes der = {0x30, 0x00};
  for (std::size_t i = 1; i < depth; ++i) {
    Bytes wrapped;
    wrapped.reserve(der.size() + 4);
    wrapped.push_back(0x30);
    if (der.size() < 0x80) {
      wrapped.push_back(static_cast<std::uint8_t>(der.size()));
    } else if (der.size() <= 0xff) {
      wrapped.push_back(0x81);
      wrapped.push_back(static_cast<std::uint8_t>(der.size()));
    } else {
      wrapped.push_back(0x82);
      wrapped.push_back(static_cast<std::uint8_t>(der.size() >> 8));
      wrapped.push_back(static_cast<std::uint8_t>(der.size() & 0xff));
    }
    wrapped.insert(wrapped.end(), der.begin(), der.end());
    der = std::move(wrapped);
  }
  return der;
}

// The Reader itself is pull-based and non-recursive, so nesting depth only
// matters to recursive consumers. Every top-level parser in the library must
// fail gracefully (classified Result, no stack overflow) on a 5000-deep
// nest — this is exactly the shape of input the paper's "ASN.1 Unparseable"
// responders emit in the wild.
TEST(DerReader, DeeplyNestedInputFailsGracefully) {
  const Bytes der = deeply_nested_sequence(5000);
  Reader r(der);
  auto top = r.read_any();
  ASSERT_TRUE(top.ok());  // the outermost TLV itself is well-formed
  EXPECT_EQ(top.value().tag, static_cast<std::uint8_t>(Tag::kSequence));

  EXPECT_FALSE(x509::Certificate::parse(der).ok());
  EXPECT_FALSE(crl::Crl::parse(der).ok());
  EXPECT_FALSE(ocsp::OcspResponse::parse(der).ok());
}

TEST(DerReader, RejectsWrongTag) {
  Writer w;
  w.integer(1);
  Reader r(w.bytes());
  auto result = r.expect(Tag::kOctetString);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.unexpected_tag");
}

TEST(DerReader, RejectsBadBoolean) {
  const Bytes der = {0x01, 0x02, 0xff, 0xff};  // boolean with 2 octets
  Reader r(der);
  EXPECT_FALSE(r.read_boolean().ok());
}

TEST(DerReader, RejectsOversizedInteger) {
  const Bytes der = {0x02, 0x09, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  Reader r(der);
  auto result = r.read_integer();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.integer_overflow");
}

TEST(DerReader, RejectsNegativeIntegerBytes) {
  Writer w;
  w.integer(-5);
  Reader r(w.bytes());
  EXPECT_FALSE(r.read_integer_bytes().ok());
}

TEST(DerReader, IntegerBytesStripsPad) {
  Writer w;
  w.integer_bytes({0xff, 0x01});
  Reader r(w.bytes());
  EXPECT_EQ(r.read_integer_bytes().value(), (Bytes{0xff, 0x01}));
}

TEST(DerReader, RejectsBadBitString) {
  const Bytes empty = {0x03, 0x00};
  Reader r(empty);
  EXPECT_FALSE(r.read_bit_string().ok());
  const Bytes bad_unused = {0x03, 0x02, 0x09, 0xff};
  Reader r2(bad_unused);
  EXPECT_FALSE(r2.read_bit_string().ok());
}

TEST(DerReader, RejectsBadGeneralizedTime) {
  Writer w;
  w.tlv(static_cast<std::uint8_t>(Tag::kGeneralizedTime),
        util::bytes_of("20189925120000Z"));
  Reader r(w.bytes());
  auto result = r.read_generalized_time();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "asn1.bad_time");
}

TEST(DerReader, PeekTagDoesNotConsume) {
  Writer w;
  w.integer(1);
  Reader r(w.bytes());
  EXPECT_EQ(r.peek_tag(), 0x02);
  EXPECT_EQ(r.peek_tag(), 0x02);
  EXPECT_TRUE(r.read_integer().ok());
  EXPECT_EQ(r.peek_tag(), 0);  // at end
}

// -------------------------------------------- view-vs-owning equivalence --

// The view read family must be observably identical to the owning one:
// same bytes on success, same error codes on malformed input. Only the
// allocation behavior differs (checked via data() pointers below).
TEST(DerReaderView, ViewReadsMatchOwningReads) {
  Writer w;
  w.sequence([](Writer& seq) {
    seq.octet_string({9, 8, 7});
    seq.bit_string({0xaa, 0xbb});
    seq.integer_bytes({0x01, 0x02, 0x03});
    seq.integer(77);
  });
  const Bytes der = w.take();

  Reader owning(der);
  auto seq_owned = owning.expect(Tag::kSequence);
  ASSERT_TRUE(seq_owned.ok());
  Reader ro(seq_owned.value().content);

  Reader viewing(der);
  auto seq_view = viewing.expect_view(Tag::kSequence);
  ASSERT_TRUE(seq_view.ok());
  EXPECT_EQ(seq_view.value().tag, seq_owned.value().tag);
  Reader rv = reader_over(seq_view.value());

  EXPECT_EQ(rv.read_octet_string_view().value().to_bytes(),
            ro.read_octet_string().value());
  EXPECT_EQ(rv.read_bit_string_view().value().to_bytes(),
            ro.read_bit_string().value());
  EXPECT_EQ(rv.read_integer_bytes_view().value().to_bytes(),
            ro.read_integer_bytes().value());
  // read_any_view sees the same trailing TLV as read_any.
  auto any_owned = ro.read_any();
  auto any_view = rv.read_any_view();
  ASSERT_TRUE(any_owned.ok());
  ASSERT_TRUE(any_view.ok());
  EXPECT_EQ(any_view.value().tag, any_owned.value().tag);
  EXPECT_EQ(any_view.value().to_tlv().content, any_owned.value().content);
  EXPECT_TRUE(ro.at_end());
  EXPECT_TRUE(rv.at_end());
}

TEST(DerReaderView, ViewsBorrowFromTheSourceBuffer) {
  Writer w;
  w.octet_string({1, 2, 3, 4});
  const Bytes der = w.take();
  Reader r(der);
  const auto view = r.read_octet_string_view();
  ASSERT_TRUE(view.ok());
  // Zero-copy: the view points INTO der, not at a copy.
  EXPECT_GE(view.value().data(), der.data());
  EXPECT_LE(view.value().data() + view.value().size(),
            der.data() + der.size());
}

TEST(DerReaderView, NestedViewsOutliveIntermediateTemporaries) {
  // A view obtained through nested expect_view calls points into the
  // ORIGINAL buffer, so it stays valid after every intermediate
  // TlvView/Result has gone out of scope.
  Writer w;
  w.sequence([](Writer& outer) {
    outer.sequence([](Writer& inner) { inner.octet_string({42, 43}); });
  });
  const Bytes der = w.take();
  util::BytesView leaf;
  {
    Reader top(der);
    auto outer = top.expect_view(Tag::kSequence);
    ASSERT_TRUE(outer.ok());
    Reader mid = reader_over(outer.value());
    auto inner = mid.expect_view(Tag::kSequence);
    ASSERT_TRUE(inner.ok());
    Reader leaf_reader = reader_over(inner.value());
    auto octets = leaf_reader.read_octet_string_view();
    ASSERT_TRUE(octets.ok());
    leaf = octets.value();
  }  // outer/inner Results and Readers destroyed; der still alive
  EXPECT_EQ(leaf.to_bytes(), (Bytes{42, 43}));
}

TEST(DerReaderView, ViewErrorsMatchOwningErrorCodes) {
  const struct {
    const char* name;
    Bytes der;
  } kMalformed[] = {
      {"truncated content", {0x04, 0x05, 0x01, 0x02}},
      {"truncated header", {0x30}},
      {"indefinite length", {0x30, 0x80, 0x00, 0x00}},
      {"non-minimal length", {0x04, 0x81, 0x03, 0x01, 0x02, 0x03}},
      {"empty", {}},
  };
  for (const auto& c : kMalformed) {
    Reader ro(c.der);
    Reader rv(c.der);
    auto owned = ro.read_any();
    auto viewed = rv.read_any_view();
    ASSERT_FALSE(owned.ok()) << c.name;
    ASSERT_FALSE(viewed.ok()) << c.name;
    EXPECT_EQ(viewed.error().code, owned.error().code) << c.name;
  }

  // Typed readers: wrong tag, bad integer, bad bit string.
  {
    Writer w;
    w.integer(1);
    Reader ro(w.bytes());
    Reader rv(w.bytes());
    auto owned = ro.expect(Tag::kOctetString);
    auto viewed = rv.expect_view(Tag::kOctetString);
    ASSERT_FALSE(owned.ok());
    ASSERT_FALSE(viewed.ok());
    EXPECT_EQ(viewed.error().code, owned.error().code);
  }
  {
    Writer w;
    w.integer(-5);  // negative magnitude rejected by integer_bytes
    Reader ro(w.bytes());
    Reader rv(w.bytes());
    auto owned = ro.read_integer_bytes();
    auto viewed = rv.read_integer_bytes_view();
    ASSERT_FALSE(owned.ok());
    ASSERT_FALSE(viewed.ok());
    EXPECT_EQ(viewed.error().code, owned.error().code);
  }
  {
    const Bytes empty_bits = {0x03, 0x00};
    Reader ro(empty_bits);
    Reader rv(empty_bits);
    auto owned = ro.read_bit_string();
    auto viewed = rv.read_bit_string_view();
    ASSERT_FALSE(owned.ok());
    ASSERT_FALSE(viewed.ok());
    EXPECT_EQ(viewed.error().code, owned.error().code);
  }
}

TEST(DerReader, NegativeIntegersRoundTrip) {
  const std::int64_t values[] = {-1,     -127,      -128,     -129,
                                 -65536, INT64_MIN, INT64_MAX};
  for (std::int64_t v : values) {
    Writer w;
    w.integer(v);
    Reader r(w.bytes());
    EXPECT_EQ(r.read_integer().value(), v) << v;
  }
}

// Property: arbitrary octet strings of many lengths round-trip (covers the
// short/long length-form boundary at 128 and multi-octet lengths).
class OctetStringRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OctetStringRoundTrip, EncodeDecode) {
  Bytes payload(GetParam());
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  Writer w;
  w.octet_string(payload);
  Reader r(w.bytes());
  auto result = r.read_octet_string();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), payload);
  EXPECT_TRUE(r.at_end());
}

INSTANTIATE_TEST_SUITE_P(Lengths, OctetStringRoundTrip,
                         ::testing::Values(0, 1, 127, 128, 129, 255, 256,
                                           65535, 65536, 70000));

}  // namespace
}  // namespace mustaple::asn1
