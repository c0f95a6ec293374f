#include "gvex/common/text_codec.h"

#include "gvex/common/string_util.h"

namespace gvex {

namespace {

// The bytes operator>> skips: isspace in the C locale.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

}  // namespace

TextWriter& TextWriter::Blob(std::string_view bytes) {
  return *this << bytes.size() << '\n' << bytes << '\n';
}

bool TextReader::NextToken(std::string_view* token) {
  if (!ok_) return false;
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  const size_t begin = pos_;
  while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
  if (pos_ == begin) {
    ok_ = false;
    return false;
  }
  *token = text_.substr(begin, pos_ - begin);
  return true;
}

TextReader& TextReader::operator>>(std::string_view& word) {
  NextToken(&word);
  return *this;
}

TextReader& TextReader::operator>>(std::string& word) {
  std::string_view token;
  if (NextToken(&token)) word.assign(token);
  return *this;
}

bool TextReader::Take(size_t n, std::string_view* out) {
  if (!ok_ || n > remaining()) return ok_ = false;
  *out = text_.substr(pos_, n);
  pos_ += n;
  return true;
}

bool TextReader::Consume(char c) {
  if (!ok_ || pos_ >= text_.size() || text_[pos_] != c) return ok_ = false;
  ++pos_;
  return true;
}

bool TextReader::Blob(std::string_view* out) {
  size_t len = 0;
  *this >> len;
  return Consume('\n') && Take(len, out) && Consume('\n');
}

Status TextReader::CheckCount(uint64_t count, size_t min_item_bytes,
                              std::string_view what) const {
  if (count <= remaining() / min_item_bytes) return Status::OK();
  return Status::IoError(
      StrFormat("%.*s count %llu exceeds the %zu bytes left",
                static_cast<int>(what.size()), what.data(),
                static_cast<unsigned long long>(count), remaining()));
}

Status TextReader::CheckGrid(uint64_t rows, uint64_t cols,
                             size_t min_item_bytes,
                             std::string_view what) const {
  if (rows == 0 || cols == 0) return Status::OK();
  GVEX_RETURN_NOT_OK(CheckCount(rows, min_item_bytes, what));
  return CheckCount(cols, rows * min_item_bytes, what);
}

bool TextReader::AtEnd() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  return pos_ == text_.size();
}

}  // namespace gvex
