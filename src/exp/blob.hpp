#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

/// Tiny flat binary codec shared by the spec digest's canonical form and
/// the result-cache shard records: an append-only little-endian writer and
/// a bounds-checked reader. Deliberately not a general serializer — every
/// container has a fixed field order and carries its own magic + version,
/// so "parse" means "replay the writer in order and check ok() once".
///
/// Doubles travel as raw IEEE-754 bits (never text): the cache's contract
/// is *byte* equality with a fresh simulation, and a text round-trip would
/// be a second place for that to silently break.
namespace cuttlefish::exp {

static_assert(std::endian::native == std::endian::little,
              "blob encoding (and the pinned golden spec digests) assume a "
              "little-endian host");

class BlobWriter {
 public:
  void u8(uint8_t v) { append(&v, sizeof(v)); }
  void u32(uint32_t v) { append(&v, sizeof(v)); }
  void i32(int32_t v) { append(&v, sizeof(v)); }
  void u64(uint64_t v) { append(&v, sizeof(v)); }
  void i64(int64_t v) { append(&v, sizeof(v)); }
  void f64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    append(s.data(), s.size());
  }
  void bytes(const void* p, size_t n) { append(p, n); }
  void reserve(size_t n) { buf_.reserve(n); }

  size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  void append(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Any overrun (or a string length past the end) flips ok() to false and
/// yields zero values from then on; callers check ok() once at the end
/// instead of guarding every field.
class BlobReader {
 public:
  BlobReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}

  uint8_t u8() { return fixed<uint8_t>(); }
  uint32_t u32() { return fixed<uint32_t>(); }
  int32_t i32() { return fixed<int32_t>(); }
  uint64_t u64() { return fixed<uint64_t>(); }
  int64_t i64() { return fixed<int64_t>(); }
  double f64() {
    const uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const uint32_t n = u32();
    const char* p = span(n);
    return p == nullptr ? std::string{} : std::string(p, n);
  }
  /// Raw view of the next n bytes (advances past them); null on overrun.
  const char* span(size_t n) {
    if (!ok_ || n > size_ - pos_) {
      ok_ = false;
      return nullptr;
    }
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T fixed() {
    if (!ok_ || sizeof(T) > size_ - pos_) {
      ok_ = false;
      return T{};
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const char* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace cuttlefish::exp
