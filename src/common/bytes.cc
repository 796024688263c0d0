#include "common/bytes.h"

#include <cstring>

#include "common/check.h"

namespace m2m {

void ByteWriter::WriteU8(uint8_t value) { bytes_.push_back(value); }

void ByteWriter::WriteU32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    bytes_.push_back(static_cast<uint8_t>((value >> shift) & 0xff));
  }
}

void ByteWriter::WriteF32(float value) {
  static_assert(sizeof(float) == 4);
  uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  WriteU32(bits);
}

void ByteWriter::WriteVarint(uint64_t value) {
  while (value >= 0x80) {
    bytes_.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  bytes_.push_back(static_cast<uint8_t>(value));
}

uint8_t ByteReader::ReadU8() {
  M2M_CHECK_LT(cursor_, bytes_.size()) << "read past end";
  return bytes_[cursor_++];
}

uint32_t ByteReader::ReadU32() {
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(ReadU8()) << shift;
  }
  return value;
}

float ByteReader::ReadF32() {
  uint32_t bits = ReadU32();
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

uint64_t ByteReader::ReadVarint() {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    M2M_CHECK_LT(shift, 64) << "varint too long";
    uint8_t byte = ReadU8();
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
  }
}

}  // namespace m2m
