#include "plan/serialization.h"

#include <algorithm>
#include <map>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32.h"

namespace m2m {

std::vector<uint8_t> EncodeNodeState(const NodeState& state,
                                     const FunctionSet& functions,
                                     uint32_t plan_epoch) {
  // Global message id -> node-local outgoing index.
  std::map<int, int> local_id;
  for (size_t i = 0; i < state.outgoing_table.size(); ++i) {
    local_id[state.outgoing_table[i].message_id] = static_cast<int>(i);
  }
  auto to_local = [&](int message_id) {
    auto it = local_id.find(message_id);
    M2M_CHECK(it != local_id.end())
        << "table entry references unknown outgoing message " << message_id;
    return it->second;
  };

  ByteWriter writer;
  writer.WriteVarint(plan_epoch);
  writer.WriteVarint(state.raw_table.size());
  for (const RawTableEntry& entry : state.raw_table) {
    writer.WriteVarint(static_cast<uint64_t>(entry.source));
    writer.WriteVarint(static_cast<uint64_t>(to_local(entry.message_id)));
  }
  writer.WriteVarint(state.preagg_table.size());
  for (const PreAggTableEntry& entry : state.preagg_table) {
    const AggregateFunction& fn = functions.Get(entry.destination);
    writer.WriteVarint(static_cast<uint64_t>(entry.source));
    writer.WriteVarint(static_cast<uint64_t>(entry.destination));
    writer.WriteU8(static_cast<uint8_t>(fn.kind()));
    writer.WriteF32(static_cast<float>(fn.WeightFor(entry.source)));
    writer.WriteF32(static_cast<float>(fn.Parameter()));
  }
  writer.WriteVarint(state.partial_table.size());
  for (const PartialTableEntry& entry : state.partial_table) {
    writer.WriteVarint(static_cast<uint64_t>(entry.destination));
    writer.WriteVarint(static_cast<uint64_t>(entry.expected_contributions));
    writer.WriteVarint(entry.message_id < 0
                           ? 0
                           : static_cast<uint64_t>(
                                 to_local(entry.message_id) + 1));
    writer.WriteU8(
        static_cast<uint8_t>(functions.Get(entry.destination).kind()));
  }
  writer.WriteVarint(state.outgoing_table.size());
  for (const OutgoingMessageEntry& entry : state.outgoing_table) {
    writer.WriteVarint(static_cast<uint64_t>(entry.unit_count));
    writer.WriteVarint(static_cast<uint64_t>(entry.recipient));
  }
  writer.WriteU8(state.is_destination ? 1 : 0);
  return std::move(writer).TakeBytes();
}

DecodedNodeState DecodeNodeState(const std::vector<uint8_t>& bytes) {
  std::optional<DecodedNodeState> decoded = TryDecodeNodeState(bytes);
  M2M_CHECK(decoded.has_value()) << "malformed node state image";
  return *std::move(decoded);
}

namespace {

/// Error-flagged reader: instead of CHECK-failing like ByteReader, a read
/// past the end latches `ok = false` and returns zeros, letting decode
/// loops bail out without crashing on hostile input.
class SafeByteReader {
 public:
  explicit SafeByteReader(const std::vector<uint8_t>& bytes)
      : bytes_(bytes) {}

  bool ok = true;

  uint8_t ReadU8() {
    if (cursor_ >= bytes_.size()) {
      ok = false;
      return 0;
    }
    return bytes_[cursor_++];
  }

  uint64_t ReadVarint() {
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte = ReadU8();
      if (!ok) return 0;
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
    }
    ok = false;  // Varint longer than 64 bits.
    return 0;
  }

  float ReadF32() {
    uint32_t raw = 0;
    for (int i = 0; i < 4; ++i) {
      raw |= static_cast<uint32_t>(ReadU8()) << (8 * i);
    }
    float value = 0.0f;
    static_assert(sizeof(value) == sizeof(raw));
    __builtin_memcpy(&value, &raw, sizeof(value));
    return value;
  }

  /// A kind byte; one that names no AggregateKind fails the read.
  AggregateKind ReadKind() {
    uint8_t kind = ReadU8();
    if (kind > static_cast<uint8_t>(AggregateKind::kArgMax)) ok = false;
    return ok ? static_cast<AggregateKind>(kind) : AggregateKind{};
  }

  /// Varint that must fit a non-negative int32 (node ids, counts).
  int32_t ReadSmall() {
    uint64_t value = ReadVarint();
    if (value > 0x7fffffff) ok = false;
    return ok ? static_cast<int32_t>(value) : 0;
  }

  bool AtEnd() const { return cursor_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - cursor_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t cursor_ = 0;
};

}  // namespace

std::optional<DecodedNodeState> TryDecodeNodeState(
    const std::vector<uint8_t>& bytes) {
  SafeByteReader reader(bytes);
  DecodedNodeState decoded;
  uint64_t epoch = reader.ReadVarint();
  if (!reader.ok || epoch > 0xffffffffull) return std::nullopt;
  decoded.plan_epoch = static_cast<uint32_t>(epoch);
  // Each `*_count` is validated against the bytes actually left, scaled by
  // that table's minimum encoded entry size (raw 2, preagg 11, partial 4,
  // outgoing 2 bytes). An oversized count from a hostile image is rejected
  // before it drives the reserve or the loop, so a 5-byte image claiming
  // 2^30 entries costs O(1), not O(count).
  // (Division form: `count * size` could wrap uint64 for a hostile count.)
  uint64_t raw_count = reader.ReadVarint();
  if (!reader.ok || raw_count > reader.remaining() / 2) return std::nullopt;
  decoded.state.raw_table.reserve(raw_count);
  for (uint64_t i = 0; i < raw_count && reader.ok; ++i) {
    RawTableEntry entry;
    entry.source = reader.ReadSmall();
    entry.message_id = reader.ReadSmall();
    decoded.state.raw_table.push_back(entry);
  }
  uint64_t preagg_count = reader.ReadVarint();
  if (!reader.ok || preagg_count > reader.remaining() / 11) {
    return std::nullopt;
  }
  decoded.preagg_meta.reserve(preagg_count);
  decoded.state.preagg_table.reserve(preagg_count);
  for (uint64_t i = 0; i < preagg_count && reader.ok; ++i) {
    PreAggTableEntry entry;
    entry.source = reader.ReadSmall();
    entry.destination = reader.ReadSmall();
    DecodedPreAggMeta meta;
    meta.kind = reader.ReadKind();
    meta.weight = reader.ReadF32();
    meta.param = reader.ReadF32();
    decoded.preagg_meta.push_back(meta);
    decoded.state.preagg_table.push_back(entry);
  }
  uint64_t partial_count = reader.ReadVarint();
  if (!reader.ok || partial_count > reader.remaining() / 4) {
    return std::nullopt;
  }
  decoded.partial_kinds.reserve(partial_count);
  decoded.state.partial_table.reserve(partial_count);
  for (uint64_t i = 0; i < partial_count && reader.ok; ++i) {
    PartialTableEntry entry;
    entry.destination = reader.ReadSmall();
    entry.expected_contributions = reader.ReadSmall();
    int32_t local_plus1 = reader.ReadSmall();
    entry.message_id = local_plus1 - 1;
    decoded.partial_kinds.push_back(reader.ReadKind());
    decoded.state.partial_table.push_back(entry);
  }
  // The trailing is_destination byte follows the outgoing table, so each
  // 2-byte-minimum entry must fit in remaining() - 1.
  uint64_t outgoing_count = reader.ReadVarint();
  if (!reader.ok || reader.remaining() < 1 ||
      outgoing_count > (reader.remaining() - 1) / 2) {
    return std::nullopt;
  }
  decoded.state.outgoing_table.reserve(outgoing_count);
  for (uint64_t i = 0; i < outgoing_count && reader.ok; ++i) {
    OutgoingMessageEntry entry;
    entry.message_id = static_cast<int>(i);
    entry.unit_count = reader.ReadSmall();
    entry.recipient = reader.ReadSmall();
    decoded.state.outgoing_table.push_back(entry);
  }
  decoded.state.is_destination = reader.ReadU8() != 0;
  if (!reader.ok || !reader.AtEnd()) return std::nullopt;

  // Cross-table validation: message references must land in the outgoing
  // table, or the runtime would index out of bounds.
  const int outgoing = static_cast<int>(decoded.state.outgoing_table.size());
  for (const RawTableEntry& entry : decoded.state.raw_table) {
    if (entry.message_id < 0 || entry.message_id >= outgoing) {
      return std::nullopt;
    }
  }
  for (const PartialTableEntry& entry : decoded.state.partial_table) {
    if (entry.message_id < -1 || entry.message_id >= outgoing) {
      return std::nullopt;
    }
    if (entry.expected_contributions < 1) return std::nullopt;
  }
  return decoded;
}

std::vector<std::vector<uint8_t>> EncodeAllNodeStates(
    const CompiledPlan& compiled, const FunctionSet& functions) {
  std::vector<std::vector<uint8_t>> images;
  images.reserve(compiled.node_count());
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    images.push_back(
        EncodeNodeState(compiled.state(n), functions, compiled.plan_epoch()));
  }
  return images;
}

namespace {

/// Offset of an image's table body: just past its leading epoch varint.
size_t BodyStart(const std::vector<uint8_t>& image) {
  size_t i = 0;
  while (i < image.size() && (image[i] & 0x80) != 0) ++i;
  return std::min(i + 1, image.size());  // Past the varint's last byte.
}

}  // namespace

void RestampImageEpoch(std::vector<uint8_t>& image, uint32_t plan_epoch) {
  // The varint as ByteWriter::WriteVarint lays it out.
  uint8_t varint[5];
  size_t length = 0;
  uint32_t value = plan_epoch;
  while (value >= 0x80) {
    varint[length++] = static_cast<uint8_t>(value) | 0x80;
    value >>= 7;
  }
  varint[length++] = static_cast<uint8_t>(value);
  const size_t old_length = BodyStart(image);
  if (old_length > length) {
    image.erase(image.begin(),
                image.begin() + static_cast<ptrdiff_t>(old_length - length));
  } else if (old_length < length) {
    image.insert(image.begin(), length - old_length, 0);
  }
  std::copy(varint, varint + length, image.begin());
}

bool ImageContentsEqual(const std::vector<uint8_t>& a,
                        const std::vector<uint8_t>& b) {
  // Skip the leading epoch varint of each image.
  const size_t sa = BodyStart(a);
  const size_t sb = BodyStart(b);
  if (a.size() - sa != b.size() - sb) return false;
  return std::equal(a.begin() + static_cast<ptrdiff_t>(sa), a.end(),
                    b.begin() + static_cast<ptrdiff_t>(sb));
}

}  // namespace m2m
