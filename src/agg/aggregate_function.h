#ifndef M2M_AGG_AGGREGATE_FUNCTION_H_
#define M2M_AGG_AGGREGATE_FUNCTION_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/partial_record.h"
#include "common/ids.h"

namespace m2m {

/// A generalized algebraic aggregation function (paper section 2.1):
/// `f_d(v_{s1}..v_{sn}) = e_d(m_d({w_{d,s1}(v_{s1}), ..., w_{d,sn}(v_{sn})}))`
/// with per-source pre-aggregation `w_{d,s}`, an associative/commutative
/// merge `m_d` over constant-size partial records, and an evaluator `e_d`.
///
/// One instance belongs to one destination; the per-source transforms (e.g.
/// weights) are stored inside the instance.
// Defined below; kind() needs the enum.
enum class AggregateKind;

class AggregateFunction {
 public:
  virtual ~AggregateFunction() = default;

  AggregateFunction(const AggregateFunction&) = delete;
  AggregateFunction& operator=(const AggregateFunction&) = delete;

  /// The declarative kind this instance implements; together with
  /// per-source weights and Parameter() it fully describes the function on
  /// the wire (plan dissemination installs exactly this).
  virtual AggregateKind kind() const = 0;

  /// Kind-specific scalar parameter (e.g. kCountAbove's threshold); 0 for
  /// kinds without one.
  virtual double Parameter() const { return 0.0; }

  /// w_{d,s}: transforms one raw reading into a partial record. Requires
  /// `source` to be one of this function's sources.
  virtual PartialRecord PreAggregate(NodeId source, double value) const = 0;

  /// m_d: merges two partial records.
  virtual PartialRecord Merge(const PartialRecord& a,
                              const PartialRecord& b) const = 0;

  /// e_d: final result from the fully merged record.
  virtual double Evaluate(const PartialRecord& record) const = 0;

  /// Reference semantics: the exact result over full inputs, computed
  /// directly (used by tests and runtime verification).
  virtual double Direct(
      const std::unordered_map<NodeId, double>& values) const = 0;

  /// Wire size in bytes of one partial record (excluding the destination
  /// tag). Determines the destination-vertex weight in the per-edge vertex
  /// cover.
  virtual int partial_record_bytes() const = 0;

  /// Whether the function supports incremental maintenance from value
  /// deltas (temporal suppression). True for sum-like records.
  virtual bool SupportsDeltas() const { return true; }

  /// Delta record for a source whose reading changed old -> new. Default:
  /// field-wise PreAggregate(new) - PreAggregate(old), which is correct for
  /// all sum-like records. Must only be called when SupportsDeltas().
  virtual PartialRecord DeltaPreAggregate(NodeId source, double old_value,
                                          double new_value) const;

  /// Whether the delta record is computable from the value change alone
  /// (new - old), without knowing the old value. Required by the temporal
  /// suppression protocol, where only the difference travels (paper
  /// section 3). True for weighted sum and weighted average.
  virtual bool SupportsLinearDeltas() const { return false; }

  /// Delta record from a raw value difference; only valid when
  /// SupportsLinearDeltas().
  virtual PartialRecord LinearDeltaPreAggregate(NodeId source,
                                                double delta) const;

  /// Applies a delta record to a maintained partial record (field-wise sum;
  /// valid for sum-like records).
  PartialRecord ApplyDelta(const PartialRecord& record,
                           const PartialRecord& delta) const;

  /// Worst-case error of the evaluated aggregate when every source's
  /// transmitted value may lag its true reading by up to `epsilon`
  /// (threshold-based temporal suppression, paper section 3: continuous
  /// maintenance "up to desired precision"). Only defined when
  /// SupportsLinearDeltas().
  virtual double SuppressionErrorBound(double epsilon) const;

  virtual std::string name() const = 0;

  /// Sources this function aggregates, ascending.
  virtual std::vector<NodeId> sources() const = 0;

  /// The per-source weight stored with the pre-aggregation function
  /// (serialized into the node tables' <s, d, w_{d,s}> entries). Weightless
  /// kinds report 1.0. Requires `source` to be one of this function's
  /// sources.
  virtual double WeightFor(NodeId source) const = 0;

 protected:
  AggregateFunction() = default;
};

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
