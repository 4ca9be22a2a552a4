// DER (Distinguished Encoding Rules) writer and reader.
//
// This is the load-bearing substrate for the study: X.509 certificates, CRLs,
// and OCSP messages are all encoded/decoded through it, and the measurement
// client's "Malformed structure" classification (paper §5.3) is precisely a
// Reader failure on a responder's body.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "asn1/oid.hpp"
#include "util/bytes.hpp"
#include "util/bytes_view.hpp"
#include "util/result.hpp"
#include "util/sim_time.hpp"

namespace mustaple::asn1 {

/// Universal-class tags (complete set used by this library).
enum class Tag : std::uint8_t {
  kBoolean = 0x01,
  kInteger = 0x02,
  kBitString = 0x03,
  kOctetString = 0x04,
  kNull = 0x05,
  kOid = 0x06,
  kEnumerated = 0x0a,
  kUtf8String = 0x0c,
  kPrintableString = 0x13,
  kIa5String = 0x16,
  kUtcTime = 0x17,
  kGeneralizedTime = 0x18,
  kSequence = 0x30,
  kSet = 0x31,
};

/// Context-specific tag byte: [n] EXPLICIT/constructed (0xA0|n) or
/// IMPLICIT/primitive (0x80|n).
std::uint8_t context_tag(unsigned n, bool constructed);

/// Builds DER in one buffer. A nested structure writes its tag and a
/// one-byte length placeholder, lets `body` write the children in place,
/// and back-patches the definite length when `body` returns; the content
/// moves right only when the long form needs more length octets. `body`
/// must write only through the Writer it is handed and must not call
/// take() or bytes() on an enclosing Writer (DESIGN.md §9).
class Writer {
 public:
  const util::Bytes& bytes() const { return out_; }
  /// Moves the encoding out with its capacity trimmed to its size, so
  /// retained DER (certificates, cached responses) holds no growth slack.
  util::Bytes take();

  void raw(const util::Bytes& der);  ///< splices pre-encoded DER
  void boolean(bool v);
  void integer(std::int64_t v);
  /// INTEGER from unsigned big-endian magnitude (adds a leading 0x00 when the
  /// high bit is set, strips redundant leading zeros). Used for serial
  /// numbers and RSA parameters.
  void integer_bytes(const util::Bytes& magnitude);
  void null();
  void oid(const Oid& oid);
  void octet_string(const util::Bytes& content);
  void bit_string(const util::Bytes& content, unsigned unused_bits = 0);
  void utf8_string(const std::string& text);
  void printable_string(const std::string& text);
  void ia5_string(const std::string& text);
  void generalized_time(util::SimTime t);
  void enumerated(std::int64_t v);

  /// SEQUENCE whose body is produced by `body(Writer&)`.
  template <typename Body>
  void sequence(Body&& body) {
    nested(static_cast<std::uint8_t>(Tag::kSequence), body);
  }
  /// SET whose body is produced by `body` (caller is responsible for DER
  /// element ordering).
  template <typename Body>
  void set(Body&& body) {
    nested(static_cast<std::uint8_t>(Tag::kSet), body);
  }
  /// [n] EXPLICIT wrapping of `body`.
  template <typename Body>
  void explicit_context(unsigned n, Body&& body) {
    nested(context_tag(n, /*constructed=*/true), body);
  }
  /// A TLV of any tag whose content `body` writes in place, e.g. an OCTET
  /// STRING that encapsulates DER or an IMPLICIT-tagged constructed value.
  template <typename Body>
  void nested(std::uint8_t tag, Body&& body) {
    const std::size_t content = open(tag);
    body(*this);
    close(content);
  }
  /// [n] IMPLICIT primitive with raw content octets.
  void implicit_context(unsigned n, const util::Bytes& content);

  /// Emits an arbitrary TLV (tag byte + definite length + content).
  void tlv(std::uint8_t tag, const util::Bytes& content);
  /// Zero-copy overload: splices a borrowed content view (e.g. re-wrapping
  /// a parsed TBS without materializing it first).
  void tlv(std::uint8_t tag, util::BytesView content);

 private:
  void header(std::uint8_t tag, std::size_t length);
  void signed_integer(std::uint8_t tag, std::int64_t v);
  void text_tlv(std::uint8_t tag, std::string_view text);
  /// Writes `tag` and a length placeholder; returns where the content starts.
  std::size_t open(std::uint8_t tag);
  /// Back-patches the length of the TLV whose content starts at `content`.
  void close(std::size_t content);
  util::Bytes out_;
};

/// A decoded TLV: tag byte plus content octets.
struct Tlv {
  std::uint8_t tag = 0;
  util::Bytes content;

  bool is(Tag t) const { return tag == static_cast<std::uint8_t>(t); }
  bool is_context(unsigned n, bool constructed) const {
    return tag == context_tag(n, constructed);
  }
};

/// A decoded TLV whose content BORROWS from the Reader's buffer — the
/// zero-copy counterpart of Tlv. The view is valid only while the source
/// buffer lives (DESIGN.md §9); copy with to_tlv()/content.to_bytes() for
/// anything retained past the parse.
struct TlvView {
  std::uint8_t tag = 0;
  util::BytesView content;

  bool is(Tag t) const { return tag == static_cast<std::uint8_t>(t); }
  bool is_context(unsigned n, bool constructed) const {
    return tag == context_tag(n, constructed);
  }
  Tlv to_tlv() const { return Tlv{tag, content.to_bytes()}; }
};

/// Sequential DER reader over a byte buffer. All methods return Result so
/// malformed input is a classified outcome, never UB or an exception.
///
/// Two read families share one decoder:
///  - owning (`read_any`, `read_octet_string`, ...) copy content out —
///    unchanged legacy API;
///  - view (`read_any_view`, `read_octet_string_view`, ...) return borrows
///    into the Reader's buffer. The parse hot paths (certificates, OCSP,
///    CRLs) traverse via views so only retained fields allocate.
class Reader {
 public:
  explicit Reader(const util::Bytes& data)
      : base_(data.data()), end_(data.size()) {}
  Reader(const util::Bytes& data, std::size_t begin, std::size_t end)
      : base_(data.data()), pos_(begin), end_(end) {}
  /// Reads over a borrowed view (typically a TlvView's content). The view's
  /// source buffer must outlive the Reader.
  explicit Reader(util::BytesView view)
      : base_(view.data()), end_(view.size()) {}
  // The Reader references the buffer; binding a temporary would dangle.
  explicit Reader(util::Bytes&&) = delete;
  Reader(util::Bytes&&, std::size_t, std::size_t) = delete;

  bool at_end() const { return pos_ >= end_; }
  std::size_t remaining() const { return end_ - pos_; }

  /// Reads the next TLV of any tag.
  util::Result<Tlv> read_any();
  /// Zero-copy read: the returned view borrows from this Reader's buffer.
  util::Result<TlvView> read_any_view();
  /// Peeks the next tag byte without consuming (0 if at end/truncated).
  std::uint8_t peek_tag() const;

  /// Reads a TLV and checks its tag.
  util::Result<Tlv> expect(Tag tag);
  util::Result<Tlv> expect_context(unsigned n, bool constructed);
  util::Result<TlvView> expect_view(Tag tag);
  util::Result<TlvView> expect_context_view(unsigned n, bool constructed);

  // Typed readers (tag check + content decoding).
  util::Result<bool> read_boolean();
  util::Result<std::int64_t> read_integer();
  util::Result<util::Bytes> read_integer_bytes();  ///< unsigned magnitude
  util::Result<Oid> read_oid();
  util::Result<util::Bytes> read_octet_string();
  util::Result<util::Bytes> read_bit_string();  ///< content minus unused-bits byte
  util::Result<std::string> read_string();      ///< UTF8/Printable/IA5
  util::Result<util::SimTime> read_generalized_time();
  util::Result<std::int64_t> read_enumerated();

  // Zero-copy typed readers: same tag checks and error codes as the owning
  // versions, but the bytes stay in place.
  util::Result<util::BytesView> read_octet_string_view();
  util::Result<util::BytesView> read_bit_string_view();
  util::Result<util::BytesView> read_integer_bytes_view();  ///< unsigned magnitude

 private:
  const std::uint8_t* base_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

/// Opens a constructed TLV's content as a fresh Reader-friendly buffer.
inline Reader reader_over(const Tlv& tlv) {
  // NOTE: Tlv owns its content, so returning a Reader over it is safe as
  // long as the Tlv outlives the Reader — the universal usage pattern here.
  return Reader(tlv.content);
}

/// View counterpart: the Reader borrows from the view's source buffer.
inline Reader reader_over(const TlvView& tlv) { return Reader(tlv.content); }

}  // namespace mustaple::asn1
