#include "asn1/der.hpp"

namespace mustaple::asn1 {

namespace {

using util::Bytes;
using util::Result;

template <typename T>
Result<T> fail(std::string code, std::string detail = {}) {
  return Result<T>::failure(std::move(code), std::move(detail));
}

/// Octets a long-form length needs (minimal, as DER requires).
std::size_t long_form_octets(std::size_t length) {
  std::size_t octets = 0;
  for (; length != 0; length >>= 8) ++octets;
  return octets;
}

}  // namespace

std::uint8_t context_tag(unsigned n, bool constructed) {
  return static_cast<std::uint8_t>(0x80u | (constructed ? 0x20u : 0x00u) |
                                   (n & 0x1fu));
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

util::Bytes Writer::take() {
  out_.shrink_to_fit();
  return std::move(out_);
}

void Writer::header(std::uint8_t tag, std::size_t length) {
  out_.push_back(tag);
  if (length < 0x80) {
    out_.push_back(static_cast<std::uint8_t>(length));
    return;
  }
  const std::size_t octets = long_form_octets(length);
  out_.push_back(static_cast<std::uint8_t>(0x80 | octets));
  for (std::size_t i = octets; i > 0; --i) {
    out_.push_back(static_cast<std::uint8_t>(length >> (8 * (i - 1))));
  }
}

std::size_t Writer::open(std::uint8_t tag) {
  out_.push_back(tag);
  out_.push_back(0);  // short-form placeholder, patched by close()
  return out_.size();
}

void Writer::close(std::size_t content) {
  const std::size_t length = out_.size() - content;
  if (length < 0x80) {
    out_[content - 1] = static_cast<std::uint8_t>(length);
    return;
  }
  // Long form: shift the content right to make room for the length octets.
  const std::size_t octets = long_form_octets(length);
  out_.insert(out_.begin() + static_cast<std::ptrdiff_t>(content), octets, 0);
  out_[content - 1] = static_cast<std::uint8_t>(0x80 | octets);
  for (std::size_t i = 0; i < octets; ++i) {
    out_[content + i] =
        static_cast<std::uint8_t>(length >> (8 * (octets - 1 - i)));
  }
}

void Writer::tlv(std::uint8_t tag, const Bytes& content) {
  tlv(tag, util::BytesView(content));
}

void Writer::tlv(std::uint8_t tag, util::BytesView content) {
  header(tag, content.size());
  util::append(out_, content);
}

void Writer::text_tlv(std::uint8_t tag, std::string_view text) {
  header(tag, text.size());
  out_.insert(out_.end(), text.begin(), text.end());
}

void Writer::raw(const Bytes& der) { util::append(out_, der); }

void Writer::boolean(bool v) {
  header(static_cast<std::uint8_t>(Tag::kBoolean), 1);
  out_.push_back(v ? 0xff : 0x00);
}

void Writer::signed_integer(std::uint8_t tag, std::int64_t v) {
  // Two's-complement big-endian, minimal length (at most 8 octets).
  std::uint8_t tmp[8];
  std::size_t count = 0;
  bool more = true;
  while (more) {
    const auto byte = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;  // arithmetic shift keeps the sign
    more = !((v == 0 && (byte & 0x80) == 0) || (v == -1 && (byte & 0x80) != 0));
    tmp[count++] = byte;
  }
  header(tag, count);
  while (count > 0) out_.push_back(tmp[--count]);
}

void Writer::integer(std::int64_t v) {
  signed_integer(static_cast<std::uint8_t>(Tag::kInteger), v);
}

void Writer::integer_bytes(const Bytes& magnitude) {
  // Strip redundant leading zeros; an empty magnitude encodes zero.
  std::size_t skip = 0;
  while (skip + 1 < magnitude.size() && magnitude[skip] == 0) ++skip;
  const util::BytesView digits = util::BytesView(magnitude).drop_front(skip);
  // Non-negative: prepend 0x00 if the high bit would read as a sign.
  const bool pad = digits.empty() || (digits[0] & 0x80) != 0;
  header(static_cast<std::uint8_t>(Tag::kInteger), digits.size() + (pad ? 1 : 0));
  if (pad) out_.push_back(0x00);
  util::append(out_, digits);
}

void Writer::null() {
  header(static_cast<std::uint8_t>(Tag::kNull), 0);
}

void Writer::oid(const Oid& o) {
  const std::size_t content = open(static_cast<std::uint8_t>(Tag::kOid));
  o.append_content(out_);
  close(content);
}

void Writer::octet_string(const Bytes& content) {
  tlv(static_cast<std::uint8_t>(Tag::kOctetString), content);
}

void Writer::bit_string(const Bytes& content, unsigned unused_bits) {
  header(static_cast<std::uint8_t>(Tag::kBitString), content.size() + 1);
  out_.push_back(static_cast<std::uint8_t>(unused_bits & 0x07));
  util::append(out_, content);
}

void Writer::utf8_string(const std::string& text) {
  text_tlv(static_cast<std::uint8_t>(Tag::kUtf8String), text);
}

void Writer::printable_string(const std::string& text) {
  text_tlv(static_cast<std::uint8_t>(Tag::kPrintableString), text);
}

void Writer::ia5_string(const std::string& text) {
  text_tlv(static_cast<std::uint8_t>(Tag::kIa5String), text);
}

void Writer::generalized_time(util::SimTime t) {
  text_tlv(static_cast<std::uint8_t>(Tag::kGeneralizedTime),
           util::to_generalized_time(t));
}

void Writer::enumerated(std::int64_t v) {
  signed_integer(static_cast<std::uint8_t>(Tag::kEnumerated), v);
}

void Writer::implicit_context(unsigned n, const Bytes& content) {
  tlv(context_tag(n, /*constructed=*/false), content);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

std::uint8_t Reader::peek_tag() const {
  if (pos_ >= end_) return 0;
  return base_[pos_];
}

Result<TlvView> Reader::read_any_view() {
  const std::size_t limit = end_;
  if (pos_ >= limit) return fail<TlvView>("asn1.truncated", "no TLV header");
  TlvView out;
  out.tag = base_[pos_++];
  if (pos_ >= limit) return fail<TlvView>("asn1.truncated", "no length octet");
  std::size_t len = base_[pos_++];
  if (len == 0x80) {
    return fail<TlvView>("asn1.indefinite_length",
                         "indefinite length is not DER");
  }
  if (len & 0x80) {
    const std::size_t n_octets = len & 0x7f;
    if (n_octets > sizeof(std::size_t)) {
      return fail<TlvView>("asn1.bad_length", "length of length too large");
    }
    if (pos_ + n_octets > limit) {
      return fail<TlvView>("asn1.truncated", "length octets run past end");
    }
    if (base_[pos_] == 0) {
      // DER requires the minimal number of length octets; a leading zero
      // octet means a shorter long form (or the short form) would have done.
      return fail<TlvView>("asn1.non_minimal_length",
                           "leading zero in long-form length");
    }
    len = 0;
    for (std::size_t i = 0; i < n_octets; ++i) {
      len = (len << 8) | base_[pos_++];
    }
    if (len < 0x80) {
      return fail<TlvView>("asn1.non_minimal_length",
                           "long form for short length");
    }
  }
  if (len > limit - pos_) {
    return fail<TlvView>("asn1.truncated", "content runs past end");
  }
  out.content = util::BytesView(base_ + pos_, len);
  pos_ += len;
  return out;
}

Result<Tlv> Reader::read_any() {
  auto view = read_any_view();
  if (!view.ok()) return fail<Tlv>(view.error().code, view.error().detail);
  return view.value().to_tlv();
}

Result<Tlv> Reader::expect(Tag tag) {
  auto tlv = expect_view(tag);
  if (!tlv.ok()) return fail<Tlv>(tlv.error().code, tlv.error().detail);
  return tlv.value().to_tlv();
}

Result<Tlv> Reader::expect_context(unsigned n, bool constructed) {
  auto tlv = expect_context_view(n, constructed);
  if (!tlv.ok()) return fail<Tlv>(tlv.error().code, tlv.error().detail);
  return tlv.value().to_tlv();
}

Result<TlvView> Reader::expect_view(Tag tag) {
  auto tlv = read_any_view();
  if (!tlv.ok()) return tlv;
  if (!tlv.value().is(tag)) {
    return fail<TlvView>("asn1.unexpected_tag",
                         "got 0x" + std::to_string(tlv.value().tag));
  }
  return tlv;
}

Result<TlvView> Reader::expect_context_view(unsigned n, bool constructed) {
  auto tlv = read_any_view();
  if (!tlv.ok()) return tlv;
  if (!tlv.value().is_context(n, constructed)) {
    return fail<TlvView>("asn1.unexpected_tag", "expected context tag");
  }
  return tlv;
}

Result<bool> Reader::read_boolean() {
  auto tlv = expect_view(Tag::kBoolean);
  if (!tlv.ok()) return fail<bool>(tlv.error().code, tlv.error().detail);
  if (tlv.value().content.size() != 1) {
    return fail<bool>("asn1.bad_boolean", "boolean must be one octet");
  }
  return tlv.value().content[0] != 0;
}

Result<std::int64_t> Reader::read_integer() {
  auto tlv = expect_view(Tag::kInteger);
  if (!tlv.ok()) return fail<std::int64_t>(tlv.error().code, tlv.error().detail);
  const util::BytesView c = tlv.value().content;
  if (c.empty()) return fail<std::int64_t>("asn1.bad_integer", "empty integer");
  if (c.size() > 8) {
    return fail<std::int64_t>("asn1.integer_overflow", "wider than int64");
  }
  std::int64_t v = (c[0] & 0x80) ? -1 : 0;
  for (std::uint8_t byte : c) v = (v << 8) | byte;
  return v;
}

Result<util::BytesView> Reader::read_integer_bytes_view() {
  auto tlv = expect_view(Tag::kInteger);
  if (!tlv.ok()) {
    return fail<util::BytesView>(tlv.error().code, tlv.error().detail);
  }
  util::BytesView c = tlv.value().content;
  if (c.empty()) return fail<util::BytesView>("asn1.bad_integer", "empty integer");
  if (c[0] & 0x80) {
    return fail<util::BytesView>("asn1.negative_integer",
                                 "expected non-negative");
  }
  // A single 0x00 pad octet marks a magnitude with the high bit set.
  if (c.size() > 1 && c[0] == 0x00) c = c.drop_front(1);
  return c;
}

Result<Bytes> Reader::read_integer_bytes() {
  auto view = read_integer_bytes_view();
  if (!view.ok()) return fail<Bytes>(view.error().code, view.error().detail);
  return view.value().to_bytes();
}

Result<Oid> Reader::read_oid() {
  auto tlv = expect_view(Tag::kOid);
  if (!tlv.ok()) return fail<Oid>(tlv.error().code, tlv.error().detail);
  return Oid::decode_content(tlv.value().content);
}

Result<util::BytesView> Reader::read_octet_string_view() {
  auto tlv = expect_view(Tag::kOctetString);
  if (!tlv.ok()) {
    return fail<util::BytesView>(tlv.error().code, tlv.error().detail);
  }
  return tlv.value().content;
}

Result<Bytes> Reader::read_octet_string() {
  auto view = read_octet_string_view();
  if (!view.ok()) return fail<Bytes>(view.error().code, view.error().detail);
  return view.value().to_bytes();
}

Result<util::BytesView> Reader::read_bit_string_view() {
  auto tlv = expect_view(Tag::kBitString);
  if (!tlv.ok()) {
    return fail<util::BytesView>(tlv.error().code, tlv.error().detail);
  }
  const util::BytesView c = tlv.value().content;
  if (c.empty()) {
    return fail<util::BytesView>("asn1.bad_bit_string", "missing unused-bits");
  }
  if (c[0] > 7) {
    return fail<util::BytesView>("asn1.bad_bit_string", "unused bits > 7");
  }
  return c.drop_front(1);
}

Result<Bytes> Reader::read_bit_string() {
  auto view = read_bit_string_view();
  if (!view.ok()) return fail<Bytes>(view.error().code, view.error().detail);
  return view.value().to_bytes();
}

Result<std::string> Reader::read_string() {
  auto tlv = read_any_view();
  if (!tlv.ok()) return fail<std::string>(tlv.error().code, tlv.error().detail);
  if (!tlv.value().is(Tag::kUtf8String) &&
      !tlv.value().is(Tag::kPrintableString) &&
      !tlv.value().is(Tag::kIa5String)) {
    return fail<std::string>("asn1.unexpected_tag", "expected a string type");
  }
  return util::text_of(tlv.value().content);
}

Result<util::SimTime> Reader::read_generalized_time() {
  auto tlv = expect_view(Tag::kGeneralizedTime);
  if (!tlv.ok()) {
    return fail<util::SimTime>(tlv.error().code, tlv.error().detail);
  }
  try {
    return util::from_generalized_time(util::text_of(tlv.value().content));
  } catch (const std::invalid_argument& e) {
    return fail<util::SimTime>("asn1.bad_time", e.what());
  }
}

Result<std::int64_t> Reader::read_enumerated() {
  auto tlv = expect_view(Tag::kEnumerated);
  if (!tlv.ok()) return fail<std::int64_t>(tlv.error().code, tlv.error().detail);
  const util::BytesView c = tlv.value().content;
  if (c.empty() || c.size() > 8) {
    return fail<std::int64_t>("asn1.bad_enumerated", "bad width");
  }
  std::int64_t v = (c[0] & 0x80) ? -1 : 0;
  for (std::uint8_t byte : c) v = (v << 8) | byte;
  return v;
}

}  // namespace mustaple::asn1
