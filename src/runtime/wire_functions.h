#ifndef M2M_RUNTIME_WIRE_FUNCTIONS_H_
#define M2M_RUNTIME_WIRE_FUNCTIONS_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/ids.h"

namespace m2m::wire {

/// The runtime's wire formats: link-layer framing, coverage summaries and
/// the self-healing control messages. A mote runs the aggregation algebra
/// itself through agg::PreAggregate / Merge / Evaluate
/// (agg/aggregate_function.h), keyed by the kind its decoded image carries.

// --- Link-layer framing (CRC32) ---
//
// Every frame that crosses a lossy link carries a 4-byte little-endian
// CRC32 trailer over its payload. A corrupted frame is *detected and
// counted* at the receiver — never decoded — so bit-flips on the channel
// can only cost a retransmission, not a wrong merge. The hostile-input
// Try-decoders (TryDecodeNodeState etc.) remain the second line of
// defense for frames an adversary crafts with a valid CRC. The primitive
// is common/crc32.h's Crc32Frame / TryOpenCrc32Frame, shared with the
// dissemination images the self-healing runtime ships.

// --- Coverage summaries (contributing-source accounting) ---

/// Largest contributing-source set tracked exactly; beyond it the summary
/// degrades to (count, xor-fold) only. 16 keeps the wire cost of a partial
/// unit bounded while covering every workload in the test deployments.
inline constexpr int kCoverageExactThreshold = 16;

/// Compact summary of which sources contributed to a PartialRecord. Rides
/// with every partial unit so a destination can report per-round coverage
/// (covered / expected) and a degraded/complete verdict even when loss
/// starves some accumulators.
struct SourceSummary {
  /// Number of distinct contributing sources.
  uint32_t count = 0;
  /// XOR of (source id + 1) over contributors — order-independent
  /// fingerprint that survives the count-only regime (+1 so source 0 is
  /// not absorbed into the empty fold).
  uint32_t xor_fold = 0;
  /// When true, `sources` lists the exact contributor set (sorted).
  bool exact_known = true;
  std::vector<NodeId> sources;

  friend bool operator==(const SourceSummary&, const SourceSummary&) = default;
};

/// Sets `summary` to the single contributor `source` (a pre-aggregated
/// reading), reusing its storage.
void AssignSingleSource(NodeId source, SourceSummary& summary);

/// Replaces `into` with the union of `into` and `from`, reusing
/// into.sources' storage (no allocation once it has grown). Contributor
/// sets along an aggregation tree are disjoint (plan consistency: one
/// pre-aggregation site per (source, destination)), but the union is
/// computed set-wise so a duplicate contributor can never double-count.
/// Collapses to (count, xor-fold) once the union exceeds
/// kCoverageExactThreshold or either side is already inexact.
void UnionSummaryInPlace(SourceSummary& into, const SourceSummary& from);

/// Wire format: varint((count << 1) | exact_known), varint(xor_fold),
/// then `count` varint source ids (sorted) when exact_known.
/// ReadSourceSummaryInto decodes into an existing summary, reusing its
/// storage.
void AppendSourceSummary(const SourceSummary& summary, ByteWriter& writer);
void ReadSourceSummaryInto(ByteReader& reader, SourceSummary& summary);

// --- Control-plane wire formats (self-healing protocol) ---
//
// These messages ride the same lossy links as data traffic; the encodings
// give the control plane byte-accurate payload sizes for energy/overhead
// accounting. All Try-decoders return nullopt on malformed input instead of
// CHECK-failing (control packets cross a lossy network); a node id or round
// above INT32_MAX is malformed, and so is an epoch above UINT32_MAX.

/// A monitor's accumulated suspicions, shipped to the base station.
struct SuspicionReport {
  NodeId monitor = kInvalidNode;
  /// (suspected neighbor, round the suspicion was raised), sorted by
  /// neighbor id.
  std::vector<std::pair<NodeId, int>> entries;
  /// (readmitted neighbor, round probation completed), sorted by neighbor
  /// id. A retraction tells the base a previously reported link healed and
  /// survived probation (detector hysteresis), so the ledger can readmit.
  std::vector<std::pair<NodeId, int>> retractions;

  friend bool operator==(const SuspicionReport&, const SuspicionReport&) =
      default;
};

std::vector<uint8_t> EncodeSuspicionReport(const SuspicionReport& report);
std::optional<SuspicionReport> TryDecodeSuspicionReport(
    const std::vector<uint8_t>& bytes);

/// Epoch-bump command: "re-stamp your installed tables with this epoch".
/// Sent to nodes whose table contents are unchanged by a re-plan, so the
/// full image need not travel (Corollary 1 keeps this the common case).
/// Always exactly kEpochBumpPayloadBytes (plan/dissemination.h) long.
std::vector<uint8_t> EncodeEpochBump(uint32_t epoch);
std::optional<uint32_t> TryDecodeEpochBump(const std::vector<uint8_t>& bytes);

/// Install acknowledgment: `node` confirms it runs plan epoch `epoch`.
std::vector<uint8_t> EncodeInstallAck(NodeId node, uint32_t epoch);
std::optional<std::pair<NodeId, uint32_t>> TryDecodeInstallAck(
    const std::vector<uint8_t>& bytes);

}  // namespace m2m::wire

#endif  // M2M_RUNTIME_WIRE_FUNCTIONS_H_
