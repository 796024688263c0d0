#include "sim/executor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "agg/partial_record.h"
#include "common/check.h"

namespace m2m {

namespace {

// Tolerances for verifying distributed results against direct evaluation.
constexpr double kFullRoundTolerance = 1e-9;
constexpr double kSuppressedTolerance = 1e-6;

bool ApproximatelyEqual(double a, double b, double tolerance) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tolerance * scale;
}

// How an override policy evaluates the local trade-off. `threshold` is the
// maximum acceptable ratio of raw cost to replaced-partial cost (negative =
// never override). `informed` policies discount partials that other changed
// sources would force onto the wire anyway — the paper's "more judicious"
// conservative behavior — while uninformed policies judge each arriving
// value in isolation.
struct OverrideBehavior {
  double threshold = -1.0;
  bool informed = false;
};

OverrideBehavior BehaviorOf(OverridePolicy policy) {
  switch (policy) {
    case OverridePolicy::kNone:
      return {-1.0, false};
    case OverridePolicy::kConservative:
      return {1.0, true};
    case OverridePolicy::kMedium:
      return {0.7, false};
    case OverridePolicy::kAggressive:
      return {1.0, false};
  }
  return {-1.0, false};
}

}  // namespace

std::string ToString(OverridePolicy policy) {
  switch (policy) {
    case OverridePolicy::kNone:
      return "none";
    case OverridePolicy::kConservative:
      return "conservative";
    case OverridePolicy::kMedium:
      return "medium";
    case OverridePolicy::kAggressive:
      return "aggressive";
  }
  return "unknown";
}

PlanExecutor::PlanExecutor(std::shared_ptr<const CompiledPlan> compiled,
                           FunctionSet functions, EnergyModel energy)
    : compiled_(std::move(compiled)),
      functions_(std::move(functions)),
      energy_(energy) {
  M2M_CHECK(compiled_ != nullptr);
  const GlobalPlan& plan = compiled_->plan();
  const MulticastForest& forest = plan.forest();
  for (size_t e = 0; e < forest.edges().size(); ++e) {
    const NodeId tail = forest.edges()[e].edge.tail;
    for (NodeId d : plan.plan_for(static_cast<int>(e)).agg_destinations) {
      auto [it, inserted] =
          fold_edge_.emplace(Key(tail, d), static_cast<int>(e));
      M2M_CHECK(inserted) << "destination " << d
                          << " has two partial edges out of node " << tail;
      agg_edges_by_dest_[d].push_back(static_cast<int>(e));
    }
  }
}

int PlanExecutor::PartialUnitBytes(NodeId destination) const {
  return kIdTagBytes + functions_.Get(destination).partial_record_bytes();
}

void PlanExecutor::ChargeMessage(int edge_index, int payload_bytes,
                                 RoundResult& result,
                                 std::vector<double>* battery_uj) const {
  const ForestEdge& edge =
      compiled_->plan().forest().edges()[edge_index];
  result.messages += 1;
  result.payload_bytes += payload_bytes;
  for (size_t i = 0; i + 1 < edge.segment.size(); ++i) {
    double tx_mj = energy_.TxUj(payload_bytes) / 1000.0;
    double rx_mj = energy_.RxUj(payload_bytes) / 1000.0;
    result.node_energy_mj[edge.segment[i]] += tx_mj;
    result.node_energy_mj[edge.segment[i + 1]] += rx_mj;
    result.energy_mj += tx_mj + rx_mj;
    result.physical_transmissions += 1;
    if (battery_uj != nullptr) {
      (*battery_uj)[edge.segment[i]] += energy_.TxUj(payload_bytes);
      (*battery_uj)[edge.segment[i + 1]] += energy_.RxUj(payload_bytes);
    }
  }
}

double PlanExecutor::EvaluateTaskRound(
    const Task& task, const std::vector<double>& readings) const {
  const GlobalPlan& plan = compiled_->plan();
  const MulticastForest& forest = plan.forest();
  const NodeId d = task.destination;

  // Reconstruct where each of this task's sources folds into d's partial,
  // walking every route (same traversal the compiler used to build the
  // node tables). Each (edge, destination) partial unit belongs to exactly
  // one task — the forest holds one task per destination — so evaluating
  // per task partitions the serial pass without changing any unit.
  std::map<int, std::set<NodeId>> folds;   // edge -> folded sources
  std::map<int, std::set<int>> chains;     // edge -> upstream edges
  std::set<NodeId> dest_folds;
  std::set<int> dest_chains;
  for (NodeId s : task.sources) {
    if (s == d) {
      dest_folds.insert(s);
      continue;
    }
    const std::vector<int>& route = forest.Route(SourceDestPair{s, d});
    bool carried_raw = true;
    for (size_t i = 0; i < route.size(); ++i) {
      const int e = route[i];
      const EdgePlan& edge_plan = plan.plan_for(e);
      if (carried_raw && edge_plan.TransmitsRaw(s)) continue;
      M2M_CHECK(edge_plan.TransmitsAggregate(d));
      if (carried_raw) {
        folds[e].insert(s);
      } else {
        chains[e].insert(route[i - 1]);
      }
      carried_raw = false;
    }
    if (carried_raw) {
      dest_folds.insert(s);
    } else {
      dest_chains.insert(route.back());
    }
  }

  // Evaluate partial-unit contents bottom-up with memoization.
  const AggregateFunction& fn = functions_.Get(d);
  std::map<int, PartialRecord> content;
  auto compute_content = [&](auto&& self, int e) -> PartialRecord {
    auto memo = content.find(e);
    if (memo != content.end()) return memo->second;
    std::optional<PartialRecord> acc;
    auto add = [&](const PartialRecord& r) {
      acc = acc.has_value() ? fn.Merge(*acc, r) : r;
    };
    auto fold_it = folds.find(e);
    if (fold_it != folds.end()) {
      for (NodeId s : fold_it->second) add(fn.PreAggregate(s, readings[s]));
    }
    auto chain_it = chains.find(e);
    if (chain_it != chains.end()) {
      for (int prev : chain_it->second) add(self(self, prev));
    }
    M2M_CHECK(acc.has_value())
        << "partial unit (" << e << ", " << d << ") has no contributions";
    content[e] = *acc;
    return *acc;
  };

  // Verify each of d's partial units equals the direct merge over its
  // edge's pairs — the same (edge, destination) set the serial edge sweep
  // covered, resliced by destination.
  auto agg_edges = agg_edges_by_dest_.find(d);
  if (agg_edges != agg_edges_by_dest_.end()) {
    for (int e : agg_edges->second) {
      const ForestEdge& edge = forest.edges()[e];
      const EdgePlan& edge_plan = plan.plan_for(e);
      PartialRecord distributed = compute_content(compute_content, e);
      std::optional<PartialRecord> expected;
      for (const SourceDestPair& pair : edge.pairs) {
        if (pair.destination != d) continue;
        // A source whose raw value also crosses this edge contributes to
        // d's partial further downstream, not here.
        if (edge_plan.TransmitsRaw(pair.source)) continue;
        PartialRecord r = fn.PreAggregate(pair.source,
                                          readings[pair.source]);
        expected =
            expected.has_value() ? fn.Merge(*expected, r) : r;
      }
      M2M_CHECK(expected.has_value());
      for (size_t f = 0; f < distributed.fields.size(); ++f) {
        M2M_CHECK(ApproximatelyEqual(distributed.fields[f],
                                     expected->fields[f],
                                     kFullRoundTolerance))
            << "partial for " << d << " diverges on edge "
            << edge.edge.tail << "->" << edge.edge.head;
      }
    }
  }

  std::optional<PartialRecord> acc;
  auto add = [&](const PartialRecord& r) {
    acc = acc.has_value() ? fn.Merge(*acc, r) : r;
  };
  for (NodeId s : dest_folds) add(fn.PreAggregate(s, readings[s]));
  for (int prev : dest_chains) add(compute_content(compute_content, prev));
  M2M_CHECK(acc.has_value())
      << "destination " << d << " received no contributions";
  double value = fn.Evaluate(*acc);
  std::unordered_map<NodeId, double> inputs;
  for (NodeId s : task.sources) inputs[s] = readings[s];
  M2M_CHECK(
      ApproximatelyEqual(value, fn.Direct(inputs), kFullRoundTolerance))
      << "destination " << d << " computed a wrong aggregate";
  return value;
}

RoundResult PlanExecutor::RunRound(const std::vector<double>& readings,
                                   const TransmissionOptions& options) const {
  const GlobalPlan& plan = compiled_->plan();
  const MulticastForest& forest = plan.forest();
  M2M_CHECK_EQ(static_cast<int>(readings.size()), forest.node_count());
  RoundResult result;
  result.plan_epoch = compiled_->plan_epoch();
  result.node_energy_mj.assign(forest.node_count(), 0.0);

  for (const Task& task : forest.tasks()) {
    result.destination_values[task.destination] =
        EvaluateTaskRound(task, readings);
  }

  // Charge energy: every scheduled message is transmitted in a full round.
  const MessageSchedule& schedule = compiled_->schedule();
  std::vector<double> battery_uj;
  std::vector<double>* uj = nullptr;
  if (battery_ != nullptr) {
    battery_uj.assign(forest.node_count(), 0.0);
    uj = &battery_uj;
  }
  auto charge_battery = [&] {
    if (battery_ == nullptr) return;
    for (double& u : battery_uj) u /= 1000.0;
    battery_->ChargeRound(battery_uj);
  };
  if (!options.use_broadcast) {
    for (const MessageSchedule::Message& message : schedule.messages()) {
      int payload = 0;
      for (int u : message.unit_ids) {
        payload += schedule.units()[u].unit_bytes;
      }
      result.units += static_cast<int64_t>(message.unit_ids.size());
      ChargeMessage(message.edge_index, payload, result, uj);
    }
    charge_battery();
    return result;
  }

  // Broadcast optimization: a raw unit carried by two or more of a node's
  // one-hop outgoing messages is transmitted once as a local broadcast;
  // the intended recipients selectively listen.
  std::map<std::pair<NodeId, NodeId>, std::vector<int>> carriers;
  for (size_t m = 0; m < schedule.messages().size(); ++m) {
    const MessageSchedule::Message& message = schedule.messages()[m];
    const ForestEdge& edge = forest.edges()[message.edge_index];
    if (edge.hop_length() != 1) continue;
    for (int u : message.unit_ids) {
      const MessageUnit& unit = schedule.units()[u];
      if (!unit.is_partial) {
        carriers[{edge.edge.tail, unit.subject}].push_back(
            static_cast<int>(m));
      }
    }
  }
  std::set<std::pair<NodeId, NodeId>> moved;  // (tail, source)
  struct Broadcast {
    int payload = 0;
    std::set<NodeId> receivers;
  };
  std::map<NodeId, Broadcast> broadcasts;
  for (const auto& [key, message_ids] : carriers) {
    if (message_ids.size() < 2) continue;
    moved.insert(key);
    Broadcast& b = broadcasts[key.first];
    b.payload += kRawUnitBytes;
    for (int m : message_ids) {
      b.receivers.insert(
          forest.edges()[schedule.messages()[m].edge_index].edge.head);
    }
    result.units += 1;
  }
  for (const MessageSchedule::Message& message : schedule.messages()) {
    const ForestEdge& edge = forest.edges()[message.edge_index];
    int payload = 0;
    int units = 0;
    for (int u : message.unit_ids) {
      const MessageUnit& unit = schedule.units()[u];
      bool unit_moved = edge.hop_length() == 1 && !unit.is_partial &&
                        moved.contains({edge.edge.tail, unit.subject});
      if (unit_moved) continue;
      payload += unit.unit_bytes;
      ++units;
    }
    if (units == 0) continue;  // Everything moved to the broadcast.
    result.units += units;
    ChargeMessage(message.edge_index, payload, result, uj);
  }
  for (const auto& [node, broadcast] : broadcasts) {
    result.messages += 1;
    result.payload_bytes += broadcast.payload;
    result.physical_transmissions += 1;
    double tx_mj = energy_.TxUj(broadcast.payload) / 1000.0;
    result.node_energy_mj[node] += tx_mj;
    result.energy_mj += tx_mj;
    if (uj != nullptr) (*uj)[node] += energy_.TxUj(broadcast.payload);
    for (NodeId receiver : broadcast.receivers) {
      double rx_mj = energy_.RxUj(broadcast.payload) / 1000.0;
      result.node_energy_mj[receiver] += rx_mj;
      result.energy_mj += rx_mj;
      if (uj != nullptr) (*uj)[receiver] += energy_.RxUj(broadcast.payload);
    }
  }
  charge_battery();
  return result;
}

void PlanExecutor::InitializeState(const std::vector<double>& readings) {
  const MulticastForest& forest = compiled_->plan().forest();
  M2M_CHECK_EQ(static_cast<int>(readings.size()), forest.node_count());
  last_readings_ = readings;
  destination_records_.clear();
  current_aggregates_.clear();
  for (const Task& task : forest.tasks()) {
    const AggregateFunction& fn = functions_.Get(task.destination);
    std::optional<PartialRecord> acc;
    for (NodeId s : task.sources) {
      PartialRecord r = fn.PreAggregate(s, readings[s]);
      acc = acc.has_value() ? fn.Merge(*acc, r) : r;
    }
    M2M_CHECK(acc.has_value());
    destination_records_[task.destination] = *acc;
    current_aggregates_[task.destination] = fn.Evaluate(*acc);
  }
  state_initialized_ = true;
}

RoundResult PlanExecutor::RunSuppressedRound(
    const std::vector<double>& new_readings, const std::vector<bool>& changed,
    OverridePolicy policy, bool replicated_preagg) {
  return RunSuppressedRoundImpl(new_readings, changed, policy,
                                /*epsilon=*/0.0, replicated_preagg);
}

RoundResult PlanExecutor::RunThresholdSuppressedRound(
    const std::vector<double>& new_readings, double epsilon,
    OverridePolicy policy, bool replicated_preagg) {
  M2M_CHECK(state_initialized_)
      << "call InitializeState before RunThresholdSuppressedRound";
  M2M_CHECK_GE(epsilon, 0.0);
  M2M_CHECK_EQ(new_readings.size(), last_readings_.size());
  std::vector<bool> changed(new_readings.size(), false);
  for (size_t n = 0; n < new_readings.size(); ++n) {
    changed[n] = std::fabs(new_readings[n] - last_readings_[n]) > epsilon;
  }
  return RunSuppressedRoundImpl(new_readings, changed, policy, epsilon,
                                replicated_preagg);
}

RoundResult PlanExecutor::RunSuppressedRoundImpl(
    const std::vector<double>& new_readings, const std::vector<bool>& changed,
    OverridePolicy policy, double epsilon, bool replicated_preagg) {
  // Override decisions are order-coupled across tasks through `raw_cross`
  // (whether a raw value already crosses an edge feeds later decisions at
  // other nodes), so tasks are decided in forest order.
  M2M_CHECK(state_initialized_)
      << "call InitializeState before RunSuppressedRound";
  const GlobalPlan& plan = compiled_->plan();
  const MulticastForest& forest = plan.forest();
  M2M_CHECK_EQ(static_cast<int>(new_readings.size()), forest.node_count());
  M2M_CHECK_EQ(changed.size(), new_readings.size());
  for (const Task& task : forest.tasks()) {
    M2M_CHECK(functions_.Get(task.destination).SupportsLinearDeltas())
        << "suppression requires linear-delta functions";
  }

  RoundResult result;
  result.plan_epoch = compiled_->plan_epoch();
  result.node_energy_mj.assign(forest.node_count(), 0.0);
  const OverrideBehavior behavior = BehaviorOf(policy);

  const int edge_count = static_cast<int>(forest.edges().size());
  std::vector<std::set<NodeId>> raw_cross(edge_count);
  std::map<std::pair<int, NodeId>, std::set<NodeId>> folds;
  std::map<std::pair<int, NodeId>, std::set<int>> chains;
  std::map<NodeId, std::set<NodeId>> dest_folds;
  std::map<NodeId, std::set<int>> dest_chains;
  std::map<uint64_t, bool> decision;  // Key(node, source) -> overridden?

  // True if some changed source other than `s` contributes to destination
  // `d` through edge `e`; informed policies use this to estimate whether
  // d's partial record travels regardless of the override.
  auto other_changed_contributor = [&](int e, NodeId d, NodeId s) {
    for (const SourceDestPair& pair : forest.edges()[e].pairs) {
      if (pair.destination == d && pair.source != s &&
          changed[pair.source]) {
        return true;
      }
    }
    return false;
  };

  enum class Mode { kRaw, kRawOverride, kPartial };
  for (const Task& task : forest.tasks()) {
    const NodeId d = task.destination;
    for (NodeId s : task.sources) {
      if (!changed[s]) continue;
      if (s == d) {
        dest_folds[d].insert(s);
        continue;
      }
      const std::vector<int>& route = forest.Route(SourceDestPair{s, d});
      Mode mode = Mode::kRaw;
      for (size_t i = 0; i < route.size(); ++i) {
        const int e = route[i];
        const NodeId n = forest.edges()[e].edge.tail;
        if (mode == Mode::kPartial) {
          chains[{e, d}].insert(route[i - 1]);
          continue;
        }
        if (mode == Mode::kRawOverride) {
          raw_cross[e].insert(s);
          continue;
        }
        const EdgePlan& edge_plan = plan.plan_for(e);
        if (edge_plan.TransmitsRaw(s)) {
          raw_cross[e].insert(s);
          continue;
        }
        M2M_CHECK(edge_plan.TransmitsAggregate(d));
        // Default plan folds s at n. Apply (or make) the override decision,
        // which is taken once per (node, value) and covers all destinations
        // whose pre-aggregation of s happens at n.
        auto decision_it = decision.find(Key(n, s));
        if (decision_it == decision.end()) {
          // The node compares, per the paper's heuristic, the local cost of
          // keeping the value raw against the partial records its
          // pre-aggregation would feed. Uninformed policies judge each
          // arriving value in isolation; at high change rates those
          // partials travel anyway (other sources changed too), which is
          // exactly how eager overriding backfires in Figure 7.
          int64_t default_marginal = 0;
          int64_t override_marginal = 0;
          std::set<int> override_edges;
          for (const PreAggTableEntry& entry :
               compiled_->state(n).preagg_table) {
            if (entry.source != s || entry.destination == n) continue;
            auto fe = fold_edge_.find(Key(n, entry.destination));
            M2M_CHECK(fe != fold_edge_.end());
            if (!behavior.informed ||
                !other_changed_contributor(fe->second, entry.destination,
                                           s)) {
              default_marginal += PartialUnitBytes(entry.destination);
            }
            override_edges.insert(fe->second);
          }
          for (int fold_e : override_edges) {
            bool raw_already = plan.plan_for(fold_e).TransmitsRaw(s) ||
                               raw_cross[fold_e].contains(s);
            if (!raw_already) override_marginal += kRawUnitBytes;
          }
          bool do_override =
              behavior.threshold >= 0.0 && default_marginal > 0 &&
              static_cast<double>(override_marginal) <=
                  behavior.threshold * static_cast<double>(default_marginal);
          decision_it = decision.emplace(Key(n, s), do_override).first;
          if (do_override) result.overrides += 1;
        }
        if (decision_it->second) {
          raw_cross[e].insert(s);
          // With replicated pre-aggregation state, downstream nodes still
          // hold w_{d,s} and may fold the raw value at the next
          // aggregation point; otherwise it must travel raw to the
          // destination (only n stores the functions).
          mode = replicated_preagg ? Mode::kRaw : Mode::kRawOverride;
        } else {
          folds[{e, d}].insert(s);
          mode = Mode::kPartial;
        }
      }
      if (mode == Mode::kPartial) {
        dest_chains[d].insert(route.back());
      } else {
        dest_folds[d].insert(s);
      }
    }
  }

  // Delta contents of transmitted partial units (bottom-up, memoized).
  std::map<std::pair<int, NodeId>, PartialRecord> content;
  auto compute_content = [&](auto&& self, int e, NodeId d) -> PartialRecord {
    auto memo = content.find({e, d});
    if (memo != content.end()) return memo->second;
    const AggregateFunction& fn = functions_.Get(d);
    std::optional<PartialRecord> acc;
    auto add = [&](const PartialRecord& r) {
      acc = acc.has_value() ? fn.Merge(*acc, r) : r;
    };
    auto fold_it = folds.find({e, d});
    if (fold_it != folds.end()) {
      for (NodeId s : fold_it->second) {
        add(fn.LinearDeltaPreAggregate(s,
                                       new_readings[s] - last_readings_[s]));
      }
    }
    auto chain_it = chains.find({e, d});
    if (chain_it != chains.end()) {
      for (int prev : chain_it->second) add(self(self, prev, d));
    }
    M2M_CHECK(acc.has_value());
    content[{e, d}] = *acc;
    return *acc;
  };

  // Charge transmitted units per edge, merged into one message per edge.
  // (When greedy merging has to split an edge's units to break a wait-for
  // cycle — possible only in adversarial topologies, see
  // message_cycle_test — this undercounts by one header per extra
  // message.)
  std::vector<double> battery_uj;
  std::vector<double>* uj = nullptr;
  if (battery_ != nullptr) {
    battery_uj.assign(forest.node_count(), 0.0);
    uj = &battery_uj;
  }
  for (int e = 0; e < edge_count; ++e) {
    int payload = 0;
    int units = 0;
    for (NodeId s : raw_cross[e]) {
      (void)s;
      payload += kRawUnitBytes;
      ++units;
    }
    for (NodeId d : plan.plan_for(e).agg_destinations) {
      bool transmitted = folds.contains({e, d}) || chains.contains({e, d});
      if (transmitted) {
        compute_content(compute_content, e, d);  // Materialize for chains.
        payload += PartialUnitBytes(d);
        ++units;
      }
    }
    if (units > 0) {
      result.units += units;
      ChargeMessage(e, payload, result, uj);
    }
  }
  if (battery_ != nullptr) {
    for (double& u : battery_uj) u /= 1000.0;
    battery_->ChargeRound(battery_uj);
  }

  // Apply deltas at destinations and verify maintained aggregates.
  for (const Task& task : forest.tasks()) {
    const NodeId d = task.destination;
    const AggregateFunction& fn = functions_.Get(d);
    std::optional<PartialRecord> delta;
    auto add = [&](const PartialRecord& r) {
      delta = delta.has_value() ? fn.Merge(*delta, r) : r;
    };
    auto fold_it = dest_folds.find(d);
    if (fold_it != dest_folds.end()) {
      for (NodeId s : fold_it->second) {
        add(fn.LinearDeltaPreAggregate(s,
                                       new_readings[s] - last_readings_[s]));
      }
    }
    auto chain_it = dest_chains.find(d);
    if (chain_it != dest_chains.end()) {
      for (int prev : chain_it->second) {
        add(compute_content(compute_content, prev, d));
      }
    }
    if (delta.has_value()) {
      destination_records_[d] = fn.ApplyDelta(destination_records_[d],
                                              *delta);
    }
    double value = fn.Evaluate(destination_records_[d]);
    std::unordered_map<NodeId, double> inputs;
    for (NodeId s : task.sources) inputs[s] = new_readings[s];
    double direct = fn.Direct(inputs);
    double deviation = std::fabs(value - direct);
    result.max_abs_error = std::max(result.max_abs_error, deviation);
    double allowed =
        (epsilon > 0.0 ? fn.SuppressionErrorBound(epsilon) : 0.0) +
        kSuppressedTolerance * std::max({1.0, std::fabs(value),
                                         std::fabs(direct)});
    M2M_CHECK_LE(deviation, allowed)
        << "destination " << d << " drifted past its suppression bound";
    current_aggregates_[d] = value;
    result.destination_values[d] = value;

    // Suppression-aware coverage: every live source is covered — the ones
    // that stayed silent are represented by their last transmitted value.
    RoundResult::DestinationCoverage coverage;
    coverage.expected = static_cast<int>(task.sources.size());
    coverage.covered = coverage.expected;
    for (NodeId s : task.sources) {
      if (changed[s]) {
        ++coverage.transmitted;
      } else {
        ++coverage.suppressed;
      }
    }
    coverage.coverage = 1.0;
    result.destination_coverage[d] = coverage;
  }

  // Commit the new readings of changed sources.
  for (size_t n = 0; n < new_readings.size(); ++n) {
    if (changed[n]) last_readings_[n] = new_readings[n];
  }

  if (metrics_ != nullptr) {
    std::set<NodeId> sources;
    for (const Task& task : forest.tasks()) {
      sources.insert(task.sources.begin(), task.sources.end());
    }
    int64_t changed_count = 0;
    for (NodeId s : sources) {
      if (changed[s]) ++changed_count;
    }
    metrics_->Add(handles_.rounds, 1);
    metrics_->Add(handles_.changed_sources, changed_count);
    metrics_->Add(handles_.suppressed_sources,
                  static_cast<int64_t>(sources.size()) - changed_count);
    metrics_->Add(handles_.overrides, result.overrides);
    metrics_->Add(handles_.payload_bytes, result.payload_bytes);
    metrics_->Add(handles_.messages, result.messages);
  }
  return result;
}

void PlanExecutor::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  handles_.rounds = metrics_->Counter("suppress.rounds");
  handles_.changed_sources = metrics_->Counter("suppress.changed_sources");
  handles_.suppressed_sources =
      metrics_->Counter("suppress.suppressed_sources");
  handles_.overrides = metrics_->Counter("suppress.overrides");
  handles_.payload_bytes = metrics_->Counter("suppress.payload_bytes");
  handles_.messages = metrics_->Counter("suppress.messages");
}

int64_t PlanExecutor::CountReplicatedPreAggEntries() const {
  const GlobalPlan& plan = compiled_->plan();
  const MulticastForest& forest = plan.forest();
  int64_t extra = 0;
  for (const Task& task : forest.tasks()) {
    for (NodeId s : task.sources) {
      if (s == task.destination) continue;
      const std::vector<int>& route =
          forest.Route(SourceDestPair{s, task.destination});
      bool carried_raw = true;
      for (size_t i = 0; i < route.size(); ++i) {
        const EdgePlan& edge_plan = plan.plan_for(route[i]);
        if (carried_raw && edge_plan.TransmitsRaw(s)) continue;
        if (carried_raw) {
          // Folded at tail(route[i]); every later tail plus the
          // destination needs a replicated w_{d,s} entry.
          extra += static_cast<int64_t>(route.size() - i);
        }
        carried_raw = false;
      }
      // Values raw all the way already have the entry at the destination.
    }
  }
  return extra;
}

}  // namespace m2m
