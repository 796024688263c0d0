#ifndef M2M_COMMON_BYTES_H_
#define M2M_COMMON_BYTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace m2m {

/// Little-endian binary writer used for wire formats (plan dissemination,
/// node-table images). Integers use fixed widths; unsigned varints are
/// available where table sizes dominate.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Writes into `buffer`, cleared but keeping its capacity, so a caller
  /// can reuse one buffer across many writes.
  explicit ByteWriter(std::vector<uint8_t> buffer) : bytes_(std::move(buffer)) {
    bytes_.clear();
  }

  void WriteU8(uint8_t value);
  void WriteU32(uint32_t value);
  void WriteF32(float value);
  /// LEB128-style unsigned varint (1 byte for values < 128).
  void WriteVarint(uint64_t value);

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }
  /// Moves the written bytes out; the writer is spent afterwards.
  std::vector<uint8_t> TakeBytes() && { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Matching reader over a view of the bytes (a whole image, or one packet
/// inside a round's packet arena). Out-of-bounds or malformed reads
/// CHECK-fail: plan images are produced by this library, so corruption is
/// a programming error, not an input error.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  uint8_t ReadU8();
  uint32_t ReadU32();
  float ReadF32();
  uint64_t ReadVarint();

  bool AtEnd() const { return cursor_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - cursor_; }

 private:
  std::span<const uint8_t> bytes_;
  size_t cursor_ = 0;
};

}  // namespace m2m

#endif  // M2M_COMMON_BYTES_H_
