#include "agg/aggregate_function.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace m2m {

PartialRecord AddFields(const PartialRecord& a, const PartialRecord& b) {
  PartialRecord out;
  for (size_t i = 0; i < out.fields.size(); ++i) {
    out.fields[i] = a.fields[i] + b.fields[i];
  }
  return out;
}

PartialRecord SubtractFields(const PartialRecord& a, const PartialRecord& b) {
  PartialRecord out;
  for (size_t i = 0; i < out.fields.size(); ++i) {
    out.fields[i] = a.fields[i] - b.fields[i];
  }
  return out;
}

std::string ToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kWeightedSum:
      return "weighted_sum";
    case AggregateKind::kWeightedAverage:
      return "weighted_average";
    case AggregateKind::kWeightedStdDev:
      return "weighted_stddev";
    case AggregateKind::kMin:
      return "min";
    case AggregateKind::kMax:
      return "max";
    case AggregateKind::kCount:
      return "count";
    case AggregateKind::kCountAbove:
      return "count_above";
    case AggregateKind::kArgMax:
      return "argmax";
  }
  return "unknown";
}

namespace agg {

PartialRecord PreAggregate(AggregateKind kind, double weight,
                           double parameter, NodeId source, double value) {
  switch (kind) {
    case AggregateKind::kWeightedSum:
      return PartialRecord{{weight * value, 0.0, 0.0}};
    case AggregateKind::kWeightedAverage:
      return PartialRecord{{weight * value, 1.0, 0.0}};
    case AggregateKind::kWeightedStdDev: {
      double x = weight * value;
      return PartialRecord{{x, x * x, 1.0}};
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return PartialRecord{{value, 0.0, 0.0}};
    case AggregateKind::kCount:
      return PartialRecord{{1.0, 0.0, 0.0}};
    case AggregateKind::kCountAbove:
      return PartialRecord{{value > parameter ? 1.0 : 0.0, 0.0, 0.0}};
    case AggregateKind::kArgMax:
      // The record carries (value, node id).
      return PartialRecord{{value, static_cast<double>(source), 0.0}};
  }
  return PartialRecord{};
}

PartialRecord Merge(AggregateKind kind, const PartialRecord& a,
                    const PartialRecord& b) {
  switch (kind) {
    case AggregateKind::kWeightedSum:
    case AggregateKind::kWeightedAverage:
    case AggregateKind::kWeightedStdDev:
    case AggregateKind::kCount:
    case AggregateKind::kCountAbove:
      return AddFields(a, b);
    case AggregateKind::kMin:
      return PartialRecord{{std::min(a.fields[0], b.fields[0]), 0.0, 0.0}};
    case AggregateKind::kMax:
      return PartialRecord{{std::max(a.fields[0], b.fields[0]), 0.0, 0.0}};
    case AggregateKind::kArgMax:
      // The larger value wins; ties go to the smaller id, so the result
      // does not depend on merge order.
      if (a.fields[0] != b.fields[0]) {
        return a.fields[0] > b.fields[0] ? a : b;
      }
      return a.fields[1] <= b.fields[1] ? a : b;
  }
  return a;
}

double Evaluate(AggregateKind kind, const PartialRecord& record) {
  switch (kind) {
    case AggregateKind::kWeightedSum:
    case AggregateKind::kMin:
    case AggregateKind::kMax:
    case AggregateKind::kCount:
    case AggregateKind::kCountAbove:
      return record.fields[0];
    case AggregateKind::kWeightedAverage:
      M2M_CHECK_GT(record.fields[1], 0.0);
      return record.fields[0] / record.fields[1];
    case AggregateKind::kWeightedStdDev: {
      M2M_CHECK_GT(record.fields[2], 0.0);
      double n = record.fields[2];
      double mean = record.fields[0] / n;
      return std::sqrt(std::max(record.fields[1] / n - mean * mean, 0.0));
    }
    case AggregateKind::kArgMax:
      return record.fields[1];
  }
  return 0.0;
}

int FieldCount(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kWeightedSum:
    case AggregateKind::kMin:
    case AggregateKind::kMax:
    case AggregateKind::kCount:
    case AggregateKind::kCountAbove:
      return 1;
    case AggregateKind::kWeightedAverage:
    case AggregateKind::kArgMax:
      return 2;
    case AggregateKind::kWeightedStdDev:
      return 3;
  }
  return 1;
}

}  // namespace agg

AggregateFunction::AggregateFunction(const FunctionSpec& spec)
    : kind_(spec.kind),
      parameter_(spec.kind == AggregateKind::kCountAbove ? spec.threshold
                                                         : 0.0),
      weights_(spec.weights) {
  M2M_CHECK(!weights_.empty());
  std::sort(weights_.begin(), weights_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 1; i < weights_.size(); ++i) {
    M2M_CHECK(weights_[i - 1].first != weights_[i].first)
        << "duplicate weight for source " << weights_[i].first;
  }
}

double AggregateFunction::WeightFor(NodeId source) const {
  auto it = std::ranges::lower_bound(
      weights_, source, {}, &std::pair<NodeId, double>::first);
  M2M_CHECK(it != weights_.end() && it->first == source)
      << "node " << source << " is not a source of " << name();
  switch (kind_) {
    case AggregateKind::kWeightedSum:
    case AggregateKind::kWeightedAverage:
    case AggregateKind::kWeightedStdDev:
      return it->second;
    default:
      return 1.0;
  }
}

std::vector<NodeId> AggregateFunction::sources() const {
  std::vector<NodeId> out;
  out.reserve(weights_.size());
  for (const auto& [source, weight] : weights_) out.push_back(source);
  return out;
}

PartialRecord AggregateFunction::PreAggregate(NodeId source,
                                              double value) const {
  return agg::PreAggregate(kind_, WeightFor(source), parameter_, source,
                           value);
}

PartialRecord AggregateFunction::Merge(const PartialRecord& a,
                                       const PartialRecord& b) const {
  return agg::Merge(kind_, a, b);
}

double AggregateFunction::Evaluate(const PartialRecord& record) const {
  return agg::Evaluate(kind_, record);
}

double AggregateFunction::Direct(
    const std::unordered_map<NodeId, double>& values) const {
  const double n = static_cast<double>(weights_.size());
  switch (kind_) {
    case AggregateKind::kWeightedSum:
    case AggregateKind::kWeightedAverage: {
      double total = 0.0;
      for (const auto& [source, weight] : weights_) {
        total += weight * values.at(source);
      }
      return kind_ == AggregateKind::kWeightedSum ? total : total / n;
    }
    case AggregateKind::kWeightedStdDev: {
      double sum = 0.0;
      double sum_sq = 0.0;
      for (const auto& [source, weight] : weights_) {
        double x = weight * values.at(source);
        sum += x;
        sum_sq += x * x;
      }
      double mean = sum / n;
      return std::sqrt(std::max(sum_sq / n - mean * mean, 0.0));
    }
    case AggregateKind::kMin:
    case AggregateKind::kMax: {
      const bool is_min = kind_ == AggregateKind::kMin;
      double best = is_min ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity();
      for (const auto& [source, weight] : weights_) {
        best = is_min ? std::min(best, values.at(source))
                      : std::max(best, values.at(source));
      }
      return best;
    }
    case AggregateKind::kCount:
      for (const auto& [source, weight] : weights_) values.at(source);
      return n;
    case AggregateKind::kCountAbove: {
      double count = 0.0;
      for (const auto& [source, weight] : weights_) {
        count += values.at(source) > parameter_ ? 1.0 : 0.0;
      }
      return count;
    }
    case AggregateKind::kArgMax: {
      // Sources ascend, so a strict comparison keeps the smallest id among
      // equal maxima.
      double best_value = -std::numeric_limits<double>::infinity();
      double best_source = -1.0;
      for (const auto& [source, weight] : weights_) {
        if (values.at(source) > best_value) {
          best_value = values.at(source);
          best_source = static_cast<double>(source);
        }
      }
      return best_source;
    }
  }
  return 0.0;
}

int AggregateFunction::partial_record_bytes() const {
  switch (kind_) {
    case AggregateKind::kWeightedSum:
    case AggregateKind::kMin:
    case AggregateKind::kMax:
      return kReadingBytes;
    case AggregateKind::kWeightedAverage:
      return kReadingBytes + kCountFieldBytes;
    case AggregateKind::kWeightedStdDev:
      return 2 * kReadingBytes + kCountFieldBytes;
    case AggregateKind::kCount:
    case AggregateKind::kCountAbove:
      return kCountFieldBytes;
    case AggregateKind::kArgMax:
      return kReadingBytes + kIdTagBytes;
  }
  return kReadingBytes;
}

bool AggregateFunction::SupportsDeltas() const {
  return kind_ != AggregateKind::kMin && kind_ != AggregateKind::kMax &&
         kind_ != AggregateKind::kArgMax;
}

bool AggregateFunction::SupportsLinearDeltas() const {
  return kind_ == AggregateKind::kWeightedSum ||
         kind_ == AggregateKind::kWeightedAverage;
}

PartialRecord AggregateFunction::DeltaPreAggregate(NodeId source,
                                                   double old_value,
                                                   double new_value) const {
  M2M_CHECK(SupportsDeltas()) << name() << " has no delta form";
  return SubtractFields(PreAggregate(source, new_value),
                        PreAggregate(source, old_value));
}

PartialRecord AggregateFunction::LinearDeltaPreAggregate(NodeId source,
                                                         double delta) const {
  M2M_CHECK(SupportsLinearDeltas()) << name() << " has no linear delta form";
  // Only the weighted value moves; an average's count does not change when
  // a reading changes.
  return PartialRecord{{WeightFor(source) * delta, 0.0, 0.0}};
}

PartialRecord AggregateFunction::ApplyDelta(const PartialRecord& record,
                                            const PartialRecord& delta) const {
  M2M_CHECK(SupportsDeltas()) << name() << " has no delta form";
  return AddFields(record, delta);
}

double AggregateFunction::SuppressionErrorBound(double epsilon) const {
  M2M_CHECK(SupportsLinearDeltas())
      << name() << " has no suppression error bound";
  double total = 0.0;
  for (const auto& [source, weight] : weights_) total += std::abs(weight);
  return kind_ == AggregateKind::kWeightedSum
             ? epsilon * total
             : epsilon * total / static_cast<double>(weights_.size());
}

std::shared_ptr<const AggregateFunction> MakeAggregateFunction(
    const FunctionSpec& spec) {
  return std::make_shared<const AggregateFunction>(spec);
}

void FunctionSet::Set(NodeId destination,
                      std::shared_ptr<const AggregateFunction> fn) {
  M2M_CHECK(fn != nullptr);
  functions_[destination] = std::move(fn);
}

const AggregateFunction& FunctionSet::Get(NodeId destination) const {
  auto it = functions_.find(destination);
  M2M_CHECK(it != functions_.end())
      << "no aggregation function for destination " << destination;
  return *it->second;
}

bool FunctionSet::Contains(NodeId destination) const {
  return functions_.contains(destination);
}

}  // namespace m2m
