#ifndef M2M_OBS_METRICS_H_
#define M2M_OBS_METRICS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace m2m::obs {

/// Opaque handle to a registered metric. Registration (name interning)
/// happens once, off the hot path; every subsequent update is an indexed
/// array access through the handle. A default-constructed handle is
/// invalid and every update through it is a checked error.
struct MetricHandle {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};

/// Zero-dependency metrics registry for the simulation runtime: named
/// counters, gauges and histograms, each optionally broken down by node id
/// and by directed edge (from, to). All state is plain integers —
/// deterministic across replays, so metric snapshots can be differential-
/// tested just like event traces.
///
/// Conventions:
///   - Counters only ever increase; `Add` with a per-node or per-edge
///     label also feeds the unlabeled total, so `Total(name)` is always
///     the sum over labels plus any unlabeled adds.
///   - Gauges are last-write-wins (`Set`).
///   - Histograms observe int64 samples into fixed upper-bound buckets
///     (default: powers of two up to 2^16, plus +inf).
///
/// `ToJson` renders a deterministic snapshot (registration order, node
/// ids ascending, edges sorted) against the `m2m.metrics.v1` schema that
/// the CI smoke job validates.
///
/// Thread safety: single writer. A registry is unsynchronized; every
/// update and read must come from one thread at a time. No parallel region
/// writes a registry: lossy rounds process their events serially, so
/// ChannelModel's burst-transition counting from delivery queries runs on
/// the calling thread, and the node-parallel phases (round start, dedup
/// eviction, lossless delivery) record metrics only in their serial
/// merges. A parallel region that must count keeps per-shard tallies and
/// adds them in its serial merge. The TSan job runs the threaded suites
/// with registries attached, so a write from a worker fails it. Snapshot
/// reads (`ToJson`, `Total`, ...) happen between rounds, which is the only
/// place the runtime and tests read them.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  /// Registers (or re-opens) a counter. Re-registering an existing name
  /// returns the same handle; the kind must match.
  MetricHandle Counter(const std::string& name);
  MetricHandle Gauge(const std::string& name);
  /// `bucket_bounds` are inclusive upper bounds, strictly increasing;
  /// empty means the default power-of-two bounds.
  MetricHandle Histogram(const std::string& name,
                         std::vector<int64_t> bucket_bounds = {});

  // --- Hot-path updates -------------------------------------------------
  /// Unlabeled counter increment.
  void Add(MetricHandle handle, int64_t delta = 1);
  /// Per-node counter increment (also feeds the total).
  void AddNode(MetricHandle handle, NodeId node, int64_t delta = 1);
  /// Per-edge counter increment (also feeds the total).
  void AddEdge(MetricHandle handle, NodeId from, NodeId to,
               int64_t delta = 1);
  /// Gauge write (last-write-wins).
  void Set(MetricHandle handle, int64_t value);
  /// Per-node gauge write.
  void SetNode(MetricHandle handle, NodeId node, int64_t value);
  /// Histogram observation.
  void Observe(MetricHandle handle, int64_t value);

  // --- Snapshot reads (tests, reconciliation, exporters) ----------------
  bool Has(const std::string& name) const;
  /// Counter/gauge total; 0 for unknown names.
  int64_t Total(const std::string& name) const;
  int64_t NodeValue(const std::string& name, NodeId node) const;
  int64_t EdgeValue(const std::string& name, NodeId from, NodeId to) const;
  /// Sum of all per-node values of a metric (label-consistency checks).
  int64_t NodeSum(const std::string& name) const;
  int64_t EdgeSum(const std::string& name) const;
  int64_t HistogramCount(const std::string& name) const;
  int64_t HistogramSum(const std::string& name) const;
  /// Registered names, in registration order.
  std::vector<std::string> Names() const;

  /// Zeroes every value but keeps registrations (handles stay valid).
  void Reset();

  /// Deterministic JSON snapshot (schema `m2m.metrics.v1`).
  std::string ToJson() const;

 private:
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  struct Metric {
    std::string name;
    Kind kind = Kind::kCounter;
    int64_t total = 0;
    /// Per-node values, grown on demand; index = node id.
    std::vector<int64_t> per_node;
    bool any_node = false;
    /// Per-edge values keyed (from << 32) | to.
    std::unordered_map<uint64_t, int64_t> per_edge;
    /// Histogram state: bounds.size() + 1 buckets (last = +inf).
    std::vector<int64_t> bounds;
    std::vector<int64_t> buckets;
    int64_t count = 0;
    int64_t sum = 0;
  };

  static uint64_t EdgeKey(NodeId from, NodeId to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from)) << 32) |
           static_cast<uint32_t>(to);
  }

  MetricHandle Register(const std::string& name, Kind kind,
                        std::vector<int64_t> bucket_bounds);
  Metric& Resolve(MetricHandle handle, Kind kind);
  const Metric* Find(const std::string& name) const;

  std::vector<Metric> metrics_;
  std::unordered_map<std::string, int32_t> index_;
};

}  // namespace m2m::obs

#endif  // M2M_OBS_METRICS_H_
