// Non-owning view over a byte buffer — the zero-copy counterpart of
// util::Bytes. Parsers traverse DER through views so a parse allocates only
// for the fields that outlive the input buffer.
//
// Lifetime rule (DESIGN.md §9): a BytesView NEVER outlives the Bytes (or
// other storage) it was taken from. Views are for traversal and transient
// inspection; anything retained past the parse is copied via to_bytes().
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace mustaple::util {

class BytesView {
 public:
  constexpr BytesView() = default;
  constexpr BytesView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  // Implicit on purpose: every Bytes is trivially viewable, and the
  // conversion keeps call sites (equality checks, hashing, parsing) free of
  // adapter noise.
  BytesView(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
      : data_(bytes.data()), size_(bytes.size()) {}
  // A view into a temporary would dangle the moment the statement ends.
  BytesView(Bytes&&) = delete;

  constexpr const std::uint8_t* data() const { return data_; }
  constexpr std::size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr std::uint8_t operator[](std::size_t i) const { return data_[i]; }
  constexpr const std::uint8_t* begin() const { return data_; }
  constexpr const std::uint8_t* end() const { return data_ + size_; }
  constexpr std::uint8_t front() const { return data_[0]; }
  constexpr std::uint8_t back() const { return data_[size_ - 1]; }

  /// Subview [pos, pos+count); clamped to the underlying range.
  constexpr BytesView subview(std::size_t pos,
                              std::size_t count = SIZE_MAX) const {
    const std::size_t p = std::min(pos, size_);
    return BytesView(data_ + p, std::min(count, size_ - p));
  }
  /// Drops the first `n` bytes (clamped).
  constexpr BytesView drop_front(std::size_t n) const {
    return subview(n);
  }

  /// Materializes an owning copy — the ONLY way view contents escape the
  /// source buffer's lifetime.
  Bytes to_bytes() const { return Bytes(data_, data_ + size_); }

  friend bool operator==(BytesView a, BytesView b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// The byte order of Bytes (lexicographic, unsigned), over views and
/// transparent: a std::map keyed by Bytes with this comparator is searched
/// with a BytesView, without building a key.
struct BytesLess {
  using is_transparent = void;
  bool operator()(BytesView a, BytesView b) const {
    return std::lexicographical_compare(a.begin(), a.end(), b.begin(),
                                        b.end());
  }
};

/// View counterpart of text_of(const Bytes&).
inline std::string text_of(BytesView data) {
  return std::string(data.begin(), data.end());
}

/// Appends a view's contents to an owning buffer.
inline void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace mustaple::util
