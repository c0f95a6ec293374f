// The one text codec behind every v2 artifact and the serve wire body
// (DESIGN.md §6, docs/WIRE_PROTOCOL.md "Numbers").
//
// TextWriter appends to a std::string. Integers print in plain decimal.
// float and double print as `%.17g` of the value as a double, which is
// what an iostream at precision 17 printed, so every format keeps its
// bytes; non-finite values print as inf, -inf, nan or -nan.
//
// TextReader is a cursor over the bytes. It skips the whitespace that
// operator>> skips (space, \t, \n, \v, \f, \r) and reads
// whitespace-delimited tokens. A number parses only if std::from_chars
// consumes the whole token: a leading '+', a '-' on an unsigned field,
// float or double values out of range (overflow or underflow to zero)
// and every non-finite float are rejected. A failed read sticks: every
// later read fails too, so a record parses as one chain and is checked
// once.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

#include "gvex/common/status.h"

namespace gvex {

/// Integers, float and double: the value types the codec reads and
/// writes. bool and 1-byte integers are excluded, because an iostream
/// printed those as characters; callers write them as int.
template <typename T>
concept TextNumber =
    (std::is_integral_v<T> && !std::is_same_v<T, bool> && sizeof(T) > 1) ||
    std::is_same_v<T, float> || std::is_same_v<T, double>;

/// Parse all of `token` as a number (the TextReader rule above).
template <TextNumber T>
bool ParseNumber(std::string_view token, T* out) {
  T value{};
  const char* last = token.data() + token.size();
  const std::from_chars_result r = std::from_chars(token.data(), last, value);
  if (r.ec != std::errc() || r.ptr != last) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  *out = value;
  return true;
}

class TextWriter {
 public:
  TextWriter& operator<<(std::string_view text) {
    out_.append(text);
    return *this;
  }
  TextWriter& operator<<(char c) {
    out_.push_back(c);
    return *this;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  TextWriter& operator<<(T value) {
    static_assert(TextNumber<T>, "write bool and 1-byte integers as int");
    char buf[32];
    std::to_chars_result r;
    if constexpr (std::is_floating_point_v<T>) {
      r = std::to_chars(buf, buf + sizeof(buf), static_cast<double>(value),
                        std::chars_format::general, 17);
    } else {
      r = std::to_chars(buf, buf + sizeof(buf), value);
    }
    out_.append(buf, r.ptr);
    return *this;
  }

  /// A length-prefixed blob: "<size>\n<bytes>\n". Any bytes survive.
  TextWriter& Blob(std::string_view bytes);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

class TextReader {
 public:
  explicit TextReader(std::string_view text) : text_(text) {}

  /// False once any read has failed.
  explicit operator bool() const { return ok_; }

  /// The next token. A string_view points into the reader's bytes.
  TextReader& operator>>(std::string_view& word);
  TextReader& operator>>(std::string& word);
  template <TextNumber T>
  TextReader& operator>>(T& value) {
    std::string_view token;
    if (NextToken(&token) && !ParseNumber(token, &value)) ok_ = false;
    return *this;
  }

  /// The next `n` raw bytes, whitespace included; fails if fewer remain.
  bool Take(size_t n, std::string_view* out);

  /// The next raw byte must be `c`.
  bool Consume(char c);

  /// A blob written by TextWriter::Blob.
  bool Blob(std::string_view* out);

  /// IoError unless `count` items of at least `min_item_bytes` bytes
  /// each fit in the bytes left. Checked before a count sizes anything.
  Status CheckCount(uint64_t count, size_t min_item_bytes,
                    std::string_view what) const;
  /// CheckCount for a rows x cols grid, without overflow.
  Status CheckGrid(uint64_t rows, uint64_t cols, size_t min_item_bytes,
                   std::string_view what) const;

  /// True when only whitespace is left.
  bool AtEnd();

 private:
  bool NextToken(std::string_view* token);
  size_t remaining() const { return text_.size() - pos_; }

  std::string_view text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace gvex
