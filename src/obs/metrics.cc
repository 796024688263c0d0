#include "obs/metrics.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace m2m::obs {

namespace {

std::vector<int64_t> DefaultBounds() {
  std::vector<int64_t> bounds;
  for (int64_t b = 1; b <= (int64_t{1} << 16); b *= 2) bounds.push_back(b);
  return bounds;
}

const char* KindName(int kind) {
  switch (kind) {
    case 0:
      return "counter";
    case 1:
      return "gauge";
    case 2:
      return "histogram";
  }
  return "?";
}

}  // namespace

MetricHandle MetricsRegistry::Register(const std::string& name, Kind kind,
                                       std::vector<int64_t> bucket_bounds) {
  M2M_CHECK(!name.empty()) << "metric names must be non-empty";
  auto it = index_.find(name);
  if (it != index_.end()) {
    M2M_CHECK(metrics_[it->second].kind == kind)
        << "metric '" << name << "' re-registered as "
        << KindName(static_cast<int>(kind)) << " but is "
        << KindName(static_cast<int>(metrics_[it->second].kind));
    return MetricHandle{it->second};
  }
  Metric metric;
  metric.name = name;
  metric.kind = kind;
  if (kind == Kind::kHistogram) {
    metric.bounds =
        bucket_bounds.empty() ? DefaultBounds() : std::move(bucket_bounds);
    M2M_CHECK(std::is_sorted(metric.bounds.begin(), metric.bounds.end()))
        << "histogram '" << name << "' bounds must be increasing";
    metric.buckets.assign(metric.bounds.size() + 1, 0);
  }
  const int32_t index = static_cast<int32_t>(metrics_.size());
  metrics_.push_back(std::move(metric));
  index_.emplace(name, index);
  return MetricHandle{index};
}

MetricHandle MetricsRegistry::Counter(const std::string& name) {
  return Register(name, Kind::kCounter, {});
}

MetricHandle MetricsRegistry::Gauge(const std::string& name) {
  return Register(name, Kind::kGauge, {});
}

MetricHandle MetricsRegistry::Histogram(const std::string& name,
                                        std::vector<int64_t> bucket_bounds) {
  return Register(name, Kind::kHistogram, std::move(bucket_bounds));
}

MetricsRegistry::Metric& MetricsRegistry::Resolve(MetricHandle handle,
                                                  Kind kind) {
  M2M_CHECK(handle.valid() &&
            handle.index < static_cast<int32_t>(metrics_.size()))
      << "update through an unregistered metric handle";
  Metric& metric = metrics_[handle.index];
  M2M_CHECK(metric.kind == kind)
      << "metric '" << metric.name << "' is "
      << KindName(static_cast<int>(metric.kind)) << ", updated as "
      << KindName(static_cast<int>(kind));
  return metric;
}

void MetricsRegistry::Add(MetricHandle handle, int64_t delta) {
  M2M_CHECK_GE(delta, 0) << "counters only increase";
  Resolve(handle, Kind::kCounter).total += delta;
}

void MetricsRegistry::AddNode(MetricHandle handle, NodeId node,
                              int64_t delta) {
  M2M_CHECK_GE(delta, 0) << "counters only increase";
  M2M_CHECK_GE(node, 0);
  Metric& metric = Resolve(handle, Kind::kCounter);
  if (static_cast<size_t>(node) >= metric.per_node.size()) {
    metric.per_node.resize(node + 1, 0);
  }
  metric.per_node[node] += delta;
  metric.any_node = true;
  metric.total += delta;
}

void MetricsRegistry::AddEdge(MetricHandle handle, NodeId from, NodeId to,
                              int64_t delta) {
  M2M_CHECK_GE(delta, 0) << "counters only increase";
  Metric& metric = Resolve(handle, Kind::kCounter);
  metric.per_edge[EdgeKey(from, to)] += delta;
  metric.total += delta;
}

void MetricsRegistry::Set(MetricHandle handle, int64_t value) {
  Resolve(handle, Kind::kGauge).total = value;
}

void MetricsRegistry::SetNode(MetricHandle handle, NodeId node,
                              int64_t value) {
  M2M_CHECK_GE(node, 0);
  Metric& metric = Resolve(handle, Kind::kGauge);
  if (static_cast<size_t>(node) >= metric.per_node.size()) {
    metric.per_node.resize(node + 1, 0);
  }
  metric.per_node[node] = value;
  metric.any_node = true;
}

void MetricsRegistry::Observe(MetricHandle handle, int64_t value) {
  Metric& metric = Resolve(handle, Kind::kHistogram);
  size_t bucket = 0;
  while (bucket < metric.bounds.size() && value > metric.bounds[bucket]) {
    ++bucket;
  }
  metric.buckets[bucket] += 1;
  metric.count += 1;
  metric.sum += value;
}

const MetricsRegistry::Metric* MetricsRegistry::Find(
    const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

bool MetricsRegistry::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

int64_t MetricsRegistry::Total(const std::string& name) const {
  const Metric* metric = Find(name);
  return metric == nullptr ? 0 : metric->total;
}

int64_t MetricsRegistry::NodeValue(const std::string& name,
                                   NodeId node) const {
  const Metric* metric = Find(name);
  if (metric == nullptr || node < 0 ||
      static_cast<size_t>(node) >= metric->per_node.size()) {
    return 0;
  }
  return metric->per_node[node];
}

int64_t MetricsRegistry::EdgeValue(const std::string& name, NodeId from,
                                   NodeId to) const {
  const Metric* metric = Find(name);
  if (metric == nullptr) return 0;
  auto it = metric->per_edge.find(EdgeKey(from, to));
  return it == metric->per_edge.end() ? 0 : it->second;
}

int64_t MetricsRegistry::NodeSum(const std::string& name) const {
  const Metric* metric = Find(name);
  if (metric == nullptr) return 0;
  int64_t sum = 0;
  for (int64_t value : metric->per_node) sum += value;
  return sum;
}

int64_t MetricsRegistry::EdgeSum(const std::string& name) const {
  const Metric* metric = Find(name);
  if (metric == nullptr) return 0;
  int64_t sum = 0;
  for (const auto& [key, value] : metric->per_edge) sum += value;
  return sum;
}

int64_t MetricsRegistry::HistogramCount(const std::string& name) const {
  const Metric* metric = Find(name);
  return metric == nullptr ? 0 : metric->count;
}

int64_t MetricsRegistry::HistogramSum(const std::string& name) const {
  const Metric* metric = Find(name);
  return metric == nullptr ? 0 : metric->sum;
}

std::vector<std::string> MetricsRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(metrics_.size());
  for (const Metric& metric : metrics_) names.push_back(metric.name);
  return names;
}

void MetricsRegistry::Reset() {
  for (Metric& metric : metrics_) {
    metric.total = 0;
    metric.per_node.clear();
    metric.any_node = false;
    metric.per_edge.clear();
    std::fill(metric.buckets.begin(), metric.buckets.end(), 0);
    metric.count = 0;
    metric.sum = 0;
  }
}

std::string MetricsRegistry::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"m2m.metrics.v1\",\n  \"metrics\": [";
  for (size_t m = 0; m < metrics_.size(); ++m) {
    const Metric& metric = metrics_[m];
    out << (m == 0 ? "\n" : ",\n") << "    {\"name\": \"" << metric.name
        << "\", \"kind\": \"" << KindName(static_cast<int>(metric.kind))
        << "\"";
    if (metric.kind == Kind::kHistogram) {
      out << ", \"count\": " << metric.count << ", \"sum\": " << metric.sum
          << ", \"buckets\": [";
      for (size_t b = 0; b < metric.buckets.size(); ++b) {
        if (b > 0) out << ", ";
        out << "{\"le\": ";
        if (b < metric.bounds.size()) {
          out << metric.bounds[b];
        } else {
          out << "\"inf\"";
        }
        out << ", \"count\": " << metric.buckets[b] << "}";
      }
      out << "]";
    } else {
      out << ", \"" << (metric.kind == Kind::kGauge ? "value" : "total")
          << "\": " << metric.total;
      if (metric.any_node) {
        out << ", \"by_node\": [";
        bool first = true;
        for (size_t n = 0; n < metric.per_node.size(); ++n) {
          if (metric.per_node[n] == 0) continue;
          if (!first) out << ", ";
          first = false;
          out << "{\"node\": " << n << ", \"value\": " << metric.per_node[n]
              << "}";
        }
        out << "]";
      }
      if (!metric.per_edge.empty()) {
        std::vector<uint64_t> keys;
        keys.reserve(metric.per_edge.size());
        for (const auto& [key, value] : metric.per_edge) keys.push_back(key);
        std::sort(keys.begin(), keys.end());
        out << ", \"by_edge\": [";
        for (size_t k = 0; k < keys.size(); ++k) {
          if (k > 0) out << ", ";
          out << "{\"from\": " << (keys[k] >> 32)
              << ", \"to\": " << static_cast<uint32_t>(keys[k])
              << ", \"value\": " << metric.per_edge.at(keys[k]) << "}";
        }
        out << "]";
      }
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace m2m::obs
