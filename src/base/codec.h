// Binary encoding primitives shared by the write-ahead log and the wire
// protocol messages: little-endian fixed-width integers, length-prefixed
// strings/blobs, and CRC32 for integrity checking.
#ifndef SRC_BASE_CODEC_H_
#define SRC_BASE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/base/types.h"

namespace camelot {

using Bytes = std::vector<uint8_t>;

// CRC32C (Castagnoli polynomial), table-driven: every log append and log
// read checksums its record with it.
uint32_t Crc32(const uint8_t* data, size_t len);
inline uint32_t Crc32(std::span<const uint8_t> b) { return Crc32(b.data(), b.size()); }

// Builds one encoded message. Bytes accumulate in an inline buffer, which
// holds every message on the simulator's hot paths, and Take() hands them out
// in one allocation of the exact size. A message that outgrows the buffer
// continues in a heap buffer that doubles as it grows.
class ByteWriter {
 public:
  ByteWriter() = default;
  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void U8(uint8_t v) { Append(&v, 1); }
  void U16(uint16_t v) { Append(&v, 2); }
  void U32(uint32_t v) { Append(&v, 4); }
  void U64(uint64_t v) { Append(&v, 8); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  void Blob(const Bytes& b) {
    U32(static_cast<uint32_t>(b.size()));
    Append(b.data(), b.size());
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Append(s.data(), s.size());
  }

  void Site(SiteId s) { U32(s.value); }
  void Family(const FamilyId& f) {
    Site(f.origin);
    U64(f.sequence);
  }
  void Transaction(const Tid& t) {
    Family(t.family);
    U32(t.serial);
    U32(t.parent_serial);
  }
  void SiteList(const std::vector<SiteId>& sites) {
    U32(static_cast<uint32_t>(sites.size()));
    for (SiteId s : sites) {
      Site(s);
    }
  }

  // The bytes written so far; valid until the next write or Take().
  std::span<const uint8_t> bytes() const { return {data_, size_}; }
  size_t size() const { return size_; }
  // The message, in a vector of exactly size() bytes; leaves the writer empty.
  Bytes Take() {
    Bytes out(data_, data_ + size_);
    size_ = 0;
    return out;
  }

 private:
  static constexpr size_t kInlineBytes = 256;

  // Host is little-endian on all supported platforms, so integers are copied
  // as they lie in memory.
  void Append(const void* p, size_t n) {
    if (n == 0) {
      return;  // An empty blob's data() may be null.
    }
    if (n > capacity_ - size_) {
      Grow(n);
    }
    std::memcpy(data_ + size_, p, n);
    size_ += n;
  }

  void Grow(size_t n) {
    size_t capacity = capacity_ * 2;
    while (capacity - size_ < n) {
      capacity *= 2;
    }
    auto grown = std::make_unique_for_overwrite<uint8_t[]>(capacity);
    std::memcpy(grown.get(), data_, size_);
    heap_ = std::move(grown);
    data_ = heap_.get();
    capacity_ = capacity;
  }

  uint8_t inline_[kInlineBytes] = {};
  std::unique_ptr<uint8_t[]> heap_;
  uint8_t* data_ = inline_;
  size_t size_ = 0;
  size_t capacity_ = kInlineBytes;
};

// Reader with explicit failure state: any over-read marks the reader failed and
// returns zero values; callers check ok() once at the end.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  explicit ByteReader(std::span<const uint8_t> data) : data_(data.data()), size_(data.size()) {}
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t U8() { return Fixed<uint8_t>(); }
  uint16_t U16() { return Fixed<uint16_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(U64()); }

  Bytes Blob() {
    const uint32_t n = U32();
    if (!Ensure(n)) {
      return {};
    }
    Bytes out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }
  std::string Str() {
    const uint32_t n = U32();
    if (!Ensure(n)) {
      return {};
    }
    std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

  SiteId Site() { return SiteId{U32()}; }
  FamilyId Family() {
    FamilyId f;
    f.origin = Site();
    f.sequence = U64();
    return f;
  }
  Tid Transaction() {
    Tid t;
    t.family = Family();
    t.serial = U32();
    t.parent_serial = U32();
    return t;
  }
  std::vector<SiteId> SiteList() {
    const uint32_t n = U32();
    std::vector<SiteId> out;
    if (n > size_) {  // Sanity bound; a corrupt length must not OOM us.
      failed_ = true;
      return out;
    }
    out.reserve(n);
    for (uint32_t i = 0; i < n && ok(); ++i) {
      out.push_back(Site());
    }
    return out;
  }

  bool ok() const { return !failed_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T Fixed() {
    if (!Ensure(sizeof(T))) {
      return T{};
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  bool Ensure(size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace camelot

#endif  // SRC_BASE_CODEC_H_
