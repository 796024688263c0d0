#ifndef M2M_AGG_AGGREGATE_FUNCTION_H_
#define M2M_AGG_AGGREGATE_FUNCTION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/partial_record.h"
#include "common/ids.h"

namespace m2m {

/// Kinds available through the factory.
enum class AggregateKind {
  kWeightedSum,      ///< sum of alpha_s * v_s; 1 field; partial = 4 bytes
  kWeightedAverage,  ///< (sum alpha_s v_s) / n; 2 fields; partial = 6 bytes
  kWeightedStdDev,   ///< population stddev of alpha_s v_s; 3 fields; 10 bytes
  kMin,              ///< minimum reading; 1 field; no delta support
  kMax,              ///< maximum reading; 1 field; no delta support
  kCount,            ///< number of sources reporting; partial = 2 bytes
  /// Number of sources whose reading exceeds FunctionSpec::threshold (event
  /// detection, e.g. "how many motion sensors fired"); supports deltas but
  /// not linear deltas.
  kCountAbove,
  /// Identifier of the source with the maximum reading (e.g. "which sensor
  /// is hottest"); partial = reading + id; no delta support.
  kArgMax,
};

std::string ToString(AggregateKind kind);

/// Declarative description of one destination's function; what workload
/// generators produce and the factory consumes.
struct FunctionSpec {
  AggregateKind kind = AggregateKind::kWeightedSum;
  /// Per-source weights (ignored by the unweighted kinds, which still use
  /// the key set as the source list).
  std::vector<std::pair<NodeId, double>> weights;
  /// Used by kCountAbove.
  double threshold = 0.0;

  friend bool operator==(const FunctionSpec&, const FunctionSpec&) = default;
};

/// The aggregation algebra of paper section 2.1, keyed by kind: the one
/// implementation of w_{d,s}, m_d and e_d. AggregateFunction runs it for the
/// planner and the analytic executor, and a mote runs it from the
/// (kind, weight, parameter) its decoded image carries (runtime/NodeRuntime),
/// so both execute the same formulas. AggregateFunction::Direct is the
/// independent reference every round is checked against.
namespace agg {

/// w_{d,s}: transforms one raw reading into a partial record. `weight` is
/// the source's weight (ignored by the unweighted kinds) and `parameter`
/// the kind's scalar parameter (kCountAbove's threshold).
PartialRecord PreAggregate(AggregateKind kind, double weight,
                           double parameter, NodeId source, double value);

/// m_d: merges two partial records of this kind.
PartialRecord Merge(AggregateKind kind, const PartialRecord& a,
                    const PartialRecord& b);

/// e_d: final result from a fully merged record.
double Evaluate(AggregateKind kind, const PartialRecord& record);

/// Number of meaningful PartialRecord fields, which a packet carries as
/// 32-bit floats.
int FieldCount(AggregateKind kind);

}  // namespace agg

/// A generalized algebraic aggregation function (paper section 2.1):
/// `f_d(v_{s1}..v_{sn}) = e_d(m_d({w_{d,s1}(v_{s1}), ..., w_{d,sn}(v_{sn})}))`
/// with per-source pre-aggregation `w_{d,s}`, an associative/commutative
/// merge `m_d` over constant-size partial records, and an evaluator `e_d`,
/// all run by the kind-keyed algebra above.
///
/// One instance belongs to one destination; the per-source weights and the
/// kind's parameter are stored inside the instance.
class AggregateFunction {
 public:
  /// CHECKs that `spec` names at least one source and none twice.
  explicit AggregateFunction(const FunctionSpec& spec);

  AggregateFunction(const AggregateFunction&) = delete;
  AggregateFunction& operator=(const AggregateFunction&) = delete;

  /// The declarative kind this instance implements; together with
  /// per-source weights and Parameter() it fully describes the function on
  /// the wire (plan dissemination installs exactly this).
  AggregateKind kind() const { return kind_; }

  /// Kind-specific scalar parameter (e.g. kCountAbove's threshold); 0 for
  /// kinds without one.
  double Parameter() const { return parameter_; }

  /// w_{d,s}: transforms one raw reading into a partial record. Requires
  /// `source` to be one of this function's sources.
  PartialRecord PreAggregate(NodeId source, double value) const;

  /// m_d: merges two partial records.
  PartialRecord Merge(const PartialRecord& a, const PartialRecord& b) const;

  /// e_d: final result from the fully merged record.
  double Evaluate(const PartialRecord& record) const;

  /// Reference semantics: the exact result over full inputs, computed
  /// directly per kind without the algebra (used by tests and runtime
  /// verification).
  double Direct(const std::unordered_map<NodeId, double>& values) const;

  /// Wire size in bytes of one partial record (excluding the destination
  /// tag). Determines the destination-vertex weight in the per-edge vertex
  /// cover.
  int partial_record_bytes() const;

  /// Whether the function supports incremental maintenance from value
  /// deltas (temporal suppression). True for sum-like records.
  bool SupportsDeltas() const;

  /// Delta record for a source whose reading changed old -> new:
  /// field-wise PreAggregate(new) - PreAggregate(old), which is correct for
  /// all sum-like records. Must only be called when SupportsDeltas().
  PartialRecord DeltaPreAggregate(NodeId source, double old_value,
                                  double new_value) const;

  /// Whether the delta record is computable from the value change alone
  /// (new - old), without knowing the old value. Required by the temporal
  /// suppression protocol, where only the difference travels (paper
  /// section 3). True for weighted sum and weighted average.
  bool SupportsLinearDeltas() const;

  /// Delta record from a raw value difference; only valid when
  /// SupportsLinearDeltas().
  PartialRecord LinearDeltaPreAggregate(NodeId source, double delta) const;

  /// Applies a delta record to a maintained partial record (field-wise sum;
  /// valid for sum-like records).
  PartialRecord ApplyDelta(const PartialRecord& record,
                           const PartialRecord& delta) const;

  /// Worst-case error of the evaluated aggregate when every source's
  /// transmitted value may lag its true reading by up to `epsilon`
  /// (threshold-based temporal suppression, paper section 3: continuous
  /// maintenance "up to desired precision"). Only defined when
  /// SupportsLinearDeltas().
  double SuppressionErrorBound(double epsilon) const;

  std::string name() const { return ToString(kind_); }

  /// Sources this function aggregates, ascending.
  std::vector<NodeId> sources() const;

  /// The per-source weight stored with the pre-aggregation function
  /// (serialized into the node tables' <s, d, w_{d,s}> entries). Weightless
  /// kinds report 1.0. Requires `source` to be one of this function's
  /// sources.
  double WeightFor(NodeId source) const;

 private:
  AggregateKind kind_;
  double parameter_;
  /// (source, weight), ascending by source.
  std::vector<std::pair<NodeId, double>> weights_;
};

/// Builds a function instance from its spec.
std::shared_ptr<const AggregateFunction> MakeAggregateFunction(
    const FunctionSpec& spec);

/// The functions of all destinations in a workload.
class FunctionSet {
 public:
  FunctionSet() = default;

  FunctionSet(const FunctionSet&) = default;
  FunctionSet& operator=(const FunctionSet&) = default;
  FunctionSet(FunctionSet&&) noexcept = default;
  FunctionSet& operator=(FunctionSet&&) noexcept = default;

  void Set(NodeId destination, std::shared_ptr<const AggregateFunction> fn);
  const AggregateFunction& Get(NodeId destination) const;
  bool Contains(NodeId destination) const;
  size_t size() const { return functions_.size(); }

 private:
  std::unordered_map<NodeId, std::shared_ptr<const AggregateFunction>>
      functions_;
};

}  // namespace m2m

#endif  // M2M_AGG_AGGREGATE_FUNCTION_H_
