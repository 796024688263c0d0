#include "runtime/wire_functions.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32.h"
#include "plan/dissemination.h"

namespace m2m::wire {

void AssignSingleSource(NodeId source, SourceSummary& summary) {
  summary.count = 1;
  summary.xor_fold = static_cast<uint32_t>(source) + 1;
  summary.exact_known = true;
  summary.sources.assign(1, source);
}

void UnionSummaryInPlace(SourceSummary& into, const SourceSummary& from) {
  if (into.exact_known && from.exact_known) {
    // Both sides hold at most kCoverageExactThreshold sorted ids, so an
    // in-place sort of the concatenation is the cheap set union.
    into.sources.insert(into.sources.end(), from.sources.begin(),
                        from.sources.end());
    std::sort(into.sources.begin(), into.sources.end());
    into.sources.erase(std::unique(into.sources.begin(), into.sources.end()),
                       into.sources.end());
    into.count = static_cast<uint32_t>(into.sources.size());
    into.xor_fold = 0;
    for (NodeId s : into.sources) {
      into.xor_fold ^= static_cast<uint32_t>(s) + 1;
    }
    if (into.sources.size() <= static_cast<size_t>(kCoverageExactThreshold)) {
      return;
    }
    into.exact_known = false;
    into.sources.clear();
    return;
  }
  // Count-only regime: contributor sets are disjoint along a consistent
  // plan's aggregation tree, so the sum is the union size.
  into.count += from.count;
  into.xor_fold ^= from.xor_fold;
  into.exact_known = false;
  into.sources.clear();
}

void AppendSourceSummary(const SourceSummary& summary, ByteWriter& writer) {
  writer.WriteVarint((static_cast<uint64_t>(summary.count) << 1) |
                     (summary.exact_known ? 1u : 0u));
  writer.WriteVarint(summary.xor_fold);
  if (summary.exact_known) {
    for (NodeId source : summary.sources) {
      writer.WriteVarint(static_cast<uint64_t>(source));
    }
  }
}

void ReadSourceSummaryInto(ByteReader& reader, SourceSummary& summary) {
  uint64_t header = reader.ReadVarint();
  summary.exact_known = (header & 1u) != 0;
  summary.count = static_cast<uint32_t>(header >> 1);
  summary.xor_fold = static_cast<uint32_t>(reader.ReadVarint());
  summary.sources.clear();
  if (summary.exact_known) {
    summary.sources.reserve(summary.count);
    for (uint32_t i = 0; i < summary.count; ++i) {
      summary.sources.push_back(static_cast<NodeId>(reader.ReadVarint()));
    }
  }
}

namespace {

// Leading tag byte of each control message kind.
constexpr uint8_t kSuspicionReportTag = 0xA1;
constexpr uint8_t kEpochBumpTag = 0xA2;
constexpr uint8_t kInstallAckTag = 0xA3;

// Bounds-checked reads for Try-decoders (ByteReader CHECK-fails, which is
// right for locally produced plan images but not for network input).
struct SafeReader {
  const std::vector<uint8_t>& bytes;
  size_t cursor = 0;
  bool ok = true;

  uint8_t ReadU8() {
    if (cursor >= bytes.size()) {
      ok = false;
      return 0;
    }
    return bytes[cursor++];
  }
  uint64_t ReadVarint() {
    uint64_t value = 0;
    int shift = 0;
    while (true) {
      if (cursor >= bytes.size() || shift > 63) {
        ok = false;
        return 0;
      }
      uint8_t byte = bytes[cursor++];
      value |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  }
  uint32_t ReadU32() {
    if (cursor + 4 > bytes.size()) {
      ok = false;
      return 0;
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(bytes[cursor++]) << (8 * i);
    }
    return value;
  }
  bool AtEnd() const { return cursor == bytes.size(); }
};

}  // namespace

std::vector<uint8_t> EncodeSuspicionReport(const SuspicionReport& report) {
  ByteWriter writer;
  writer.WriteU8(kSuspicionReportTag);
  writer.WriteVarint(static_cast<uint64_t>(report.monitor));
  writer.WriteVarint(report.entries.size());
  for (const auto& [neighbor, round] : report.entries) {
    writer.WriteVarint(static_cast<uint64_t>(neighbor));
    writer.WriteVarint(static_cast<uint64_t>(round));
  }
  writer.WriteVarint(report.retractions.size());
  for (const auto& [neighbor, round] : report.retractions) {
    writer.WriteVarint(static_cast<uint64_t>(neighbor));
    writer.WriteVarint(static_cast<uint64_t>(round));
  }
  return std::move(writer).TakeBytes();
}

std::optional<SuspicionReport> TryDecodeSuspicionReport(
    const std::vector<uint8_t>& bytes) {
  SafeReader reader{bytes};
  if (reader.ReadU8() != kSuspicionReportTag) return std::nullopt;
  SuspicionReport report;
  report.monitor = static_cast<NodeId>(reader.ReadVarint());
  uint64_t count = reader.ReadVarint();
  if (!reader.ok || count > bytes.size()) return std::nullopt;
  for (uint64_t i = 0; i < count; ++i) {
    NodeId neighbor = static_cast<NodeId>(reader.ReadVarint());
    int round = static_cast<int>(reader.ReadVarint());
    report.entries.emplace_back(neighbor, round);
  }
  uint64_t retraction_count = reader.ReadVarint();
  if (!reader.ok || retraction_count > bytes.size()) return std::nullopt;
  for (uint64_t i = 0; i < retraction_count; ++i) {
    NodeId neighbor = static_cast<NodeId>(reader.ReadVarint());
    int round = static_cast<int>(reader.ReadVarint());
    report.retractions.emplace_back(neighbor, round);
  }
  if (!reader.ok || !reader.AtEnd()) return std::nullopt;
  return report;
}

std::vector<uint8_t> EncodeEpochBump(uint32_t epoch) {
  ByteWriter writer;
  writer.WriteU8(kEpochBumpTag);
  writer.WriteU32(epoch);  // Fixed width: the bump is always 5 bytes.
  M2M_CHECK_EQ(writer.size(), static_cast<size_t>(kEpochBumpPayloadBytes));
  return std::move(writer).TakeBytes();
}

std::optional<uint32_t> TryDecodeEpochBump(const std::vector<uint8_t>& bytes) {
  SafeReader reader{bytes};
  if (reader.ReadU8() != kEpochBumpTag) return std::nullopt;
  uint32_t epoch = reader.ReadU32();
  if (!reader.ok || !reader.AtEnd()) return std::nullopt;
  return epoch;
}

std::vector<uint8_t> EncodeInstallAck(NodeId node, uint32_t epoch) {
  ByteWriter writer;
  writer.WriteU8(kInstallAckTag);
  writer.WriteVarint(static_cast<uint64_t>(node));
  writer.WriteVarint(epoch);
  return std::move(writer).TakeBytes();
}

std::optional<std::pair<NodeId, uint32_t>> TryDecodeInstallAck(
    const std::vector<uint8_t>& bytes) {
  SafeReader reader{bytes};
  if (reader.ReadU8() != kInstallAckTag) return std::nullopt;
  NodeId node = static_cast<NodeId>(reader.ReadVarint());
  uint64_t epoch = reader.ReadVarint();
  if (!reader.ok || !reader.AtEnd() || epoch > 0xffffffffull) {
    return std::nullopt;
  }
  return std::make_pair(node, static_cast<uint32_t>(epoch));
}

}  // namespace m2m::wire
