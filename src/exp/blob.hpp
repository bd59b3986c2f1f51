#pragma once

#include <algorithm>
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

/// Writes land in a buffer sized ahead of them: a fixed-width field is an
/// inline bounds check and one store, and only growing the buffer calls
/// out of line. `reserve` the expected size up front and a whole record
/// is encoded without a call per field.
class BlobWriter {
 public:
  void u8(uint8_t v) { put(v); }
  void u32(uint32_t v) { put(v); }
  void i32(int32_t v) { put(v); }
  void u64(uint64_t v) { put(v); }
  void i64(int64_t v) { put(v); }
  void f64(double v) { put(std::bit_cast<uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void bytes(const void* p, size_t n) {
    if (n == 0) return;  // `p` may be null then, which memcpy forbids
    if (n > buf_.size() - size_) grow(n);
    std::memcpy(buf_.data() + size_, p, n);
    size_ += n;
  }
  /// Room for `n` bytes in all, so writes up to that size never grow.
  void reserve(size_t n) {
    if (n > buf_.size()) buf_.resize(n);
  }

  size_t size() const { return size_; }
  std::string_view data() const { return {buf_.data(), size_}; }
  std::string take() {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }

 private:
  template <typename T>
  void put(T v) {
    bytes(&v, sizeof(T));
  }
  /// At least doubles the buffer, so a stream of small writes grows it
  /// O(log n) times.
  [[gnu::noinline]] void grow(size_t n) {
    buf_.resize(std::max(2 * buf_.size(), size_ + n));
  }

  std::string buf_;  // the first size_ bytes are written; the rest is room
  size_t size_ = 0;
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
