#ifndef M2M_TESTS_FAULT_TEST_UTIL_H_
#define M2M_TESTS_FAULT_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/aggregate_function.h"
#include "obs/metrics.h"
#include "plan/consistency.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/network.h"
#include "sim/executor.h"
#include "sim/fault_schedule.h"
#include "sim/physical_layer.h"
#include "sim/readings.h"
#include "sim/self_healing.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace fault_test {

/// Everything one end-to-end fault-schedule run produces. The differential
/// tests assert the value/divergence fields are clean and that `trace` is
/// byte-identical across replays of the same schedule.
struct FaultRunResult {
  /// Full event log: schedule description, re-plan records, per-round
  /// runtime events, and round summaries. Deterministic per schedule.
  std::string trace;
  /// Convergence-round aggregates (alive destinations that completed).
  std::unordered_map<NodeId, double> final_values;
  /// Fault-free analytic oracle over the surviving plan, same readings.
  std::unordered_map<NodeId, double> oracle_values;
  /// Alive destinations that failed to complete the convergence round.
  std::vector<NodeId> unconverged_destinations;
  /// Completed per-round values that disagreed with the per-round oracle.
  std::vector<std::string> value_mismatches;
  /// Corollary 1 violations: local re-plan != from-scratch re-plan.
  std::vector<std::string> replan_divergences;
  /// Theorem 1 violations in any patched plan.
  std::vector<std::string> consistency_violations;
  int replans = 0;
  int64_t edges_reused = 0;
  int64_t edges_reoptimized = 0;
  int64_t attempts = 0;
  int64_t retransmissions = 0;
  int64_t duplicates = 0;
  int64_t acks_lost = 0;
  int64_t messages_abandoned = 0;
};

/// The differential tests' workload: 5 destinations x 5 sources within 4
/// hops.
inline Workload DefaultWorkload(const Topology& topology, uint64_t seed) {
  WorkloadSpec spec;
  spec.destination_count = 5;
  spec.sources_per_destination = 5;
  spec.max_hops = 4;
  spec.seed = seed;
  return GenerateWorkload(topology, spec);
}

/// Oracle over the actually-delivered source set: merges exactly the
/// reported contributors' pre-aggregated readings, the value a destination
/// should report given what the channel let through.
inline double SubsetOracle(const AggregateFunction& fn,
                           const std::vector<NodeId>& sources,
                           const std::vector<double>& readings) {
  std::optional<PartialRecord> merged;
  for (NodeId s : sources) {
    PartialRecord partial = fn.PreAggregate(s, readings[s]);
    merged = merged ? fn.Merge(*merged, partial) : partial;
  }
  return fn.Evaluate(*merged);
}

inline bool ValuesClose(double a, double b) {
  return std::abs(a - b) <= 1e-4 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Runs `schedule` against (topology, workload): every scheduled round is
/// executed over lossy links with ack/retry; persistent faults trigger a
/// local re-plan (validated against a from-scratch global re-plan,
/// Corollary 1), and each completed destination is compared against the
/// analytic executor on the same plan and readings. A final convergence
/// round (one past the schedule, so no transient faults) yields
/// `final_values`, differentially compared to `oracle_values`. The schedule
/// must be fail-only (no heals or recoveries).
inline FaultRunResult RunFaultSchedule(const Topology& topology,
                                       const Workload& workload,
                                       const FaultSchedule& schedule,
                                       uint64_t readings_seed,
                                       const RetryPolicy& retry = {}) {
  FaultRunResult result;
  EventTrace trace;
  trace.Append(schedule.Describe());

  Workload current = workload;
  std::vector<std::pair<NodeId, NodeId>> failed_links;
  std::vector<NodeId> dead_nodes;

  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, current.tasks),
      current.functions);

  const int rounds = schedule.options().rounds;
  // One extra round past the schedule: no transient faults remain, so every
  // alive destination must converge (differential acceptance criterion).
  for (int round = 0; round <= rounds; ++round) {
    std::vector<FaultEvent> events = schedule.PersistentEventsAt(round);
    if (!events.empty()) {
      for (const FaultEvent& event : events) {
        if (event.type == FaultType::kNodeDeath) {
          dead_nodes.push_back(event.a);
          // A dead node stops being a source in every task that used it.
          for (const Task& task : std::vector<Task>(current.tasks)) {
            if (std::find(task.sources.begin(), task.sources.end(),
                          event.a) != task.sources.end()) {
              current = WithSourceRemoved(current, event.a, task.destination);
            }
          }
        } else {
          failed_links.emplace_back(event.a, event.b);
        }
      }
      Topology masked =
          Topology::WithFailures(topology, failed_links, dead_nodes);
      paths = PathSystem(masked);
      UpdateStats stats;
      GlobalPlan patched = ReplanForWorkload(plan, paths, current.tasks,
                                             current.functions, &stats);
      GlobalPlan fresh = BuildPlan(patched.forest_ptr(), current.functions,
                                   plan.options());
      for (std::string& d : FindPlanDivergence(patched, fresh)) {
        result.replan_divergences.push_back(std::move(d));
      }
      for (std::string& v : FindConsistencyViolations(patched)) {
        result.consistency_violations.push_back(std::move(v));
      }
      std::ostringstream line;
      line << "r" << round << " replan events=" << events.size()
           << " edges=" << stats.edges_total
           << " reused=" << stats.edges_reused
           << " reopt=" << stats.edges_reoptimized;
      trace.Append(line.str());
      plan = patched;
      ++result.replans;
      result.edges_reused += stats.edges_reused;
      result.edges_reoptimized += stats.edges_reoptimized;
    }

    CompiledPlan compiled = CompiledPlan::Compile(plan, current.functions);
    RuntimeNetwork network(compiled, current.functions);
    ReadingGenerator readings(topology.node_count(),
                              readings_seed + static_cast<uint64_t>(round));

    const LossyLinkModel links = PhysicalLayer{.faults = &schedule}.Bind(round);

    std::ostringstream header;
    header << "r" << round << " begin";
    trace.Append(header.str());
    RuntimeNetwork::LossyResult lossy =
        network.RunRoundLossy(readings.values(), links, retry, {}, &trace);
    result.attempts += lossy.attempts;
    result.retransmissions += lossy.retransmissions;
    result.duplicates += lossy.duplicates;
    result.acks_lost += lossy.acks_lost;
    result.messages_abandoned += lossy.messages_abandoned;

    // Differential check: any destination that *did* complete must agree
    // with the analytic executor on the same plan and readings (which
    // itself CHECK-verifies against direct evaluation of the function).
    PlanExecutor oracle(std::make_shared<CompiledPlan>(compiled),
                        current.functions, EnergyModel{});
    RoundResult analytic = oracle.RunRound(readings.values());
    for (const auto& [destination, value] : lossy.destination_values) {
      auto it = analytic.destination_values.find(destination);
      if (it == analytic.destination_values.end() ||
          !ValuesClose(value, it->second)) {
        std::ostringstream mismatch;
        mismatch << "r" << round << " d" << destination << " got " << value
                 << " want "
                 << (it == analytic.destination_values.end()
                         ? std::nan("")
                         : it->second);
        result.value_mismatches.push_back(mismatch.str());
      }
    }

    std::ostringstream summary;
    summary << "r" << round << " end complete="
            << lossy.destination_values.size() << "/"
            << (lossy.destination_values.size() +
                lossy.incomplete_destinations.size())
            << " attempts=" << lossy.attempts << " retx="
            << lossy.retransmissions << " dup=" << lossy.duplicates
            << " abandoned=" << lossy.messages_abandoned
            << " ticks=" << lossy.final_tick;
    trace.Append(summary.str());

    if (round == rounds) {
      result.final_values = lossy.destination_values;
      result.unconverged_destinations = lossy.incomplete_destinations;
      result.oracle_values = analytic.destination_values;
    }
  }

  result.trace = trace.ToString();
  return result;
}

/// Destinations of every task (the fault generator's protected set: the
/// paper's model keeps consumers alive; dead consumers would make their
/// aggregate undefined rather than recoverable).
inline std::vector<NodeId> Destinations(const Workload& workload) {
  std::vector<NodeId> out;
  out.reserve(workload.tasks.size());
  for (const Task& task : workload.tasks) out.push_back(task.destination);
  return out;
}

/// The analytic executor of every plan epoch a self-healing runtime
/// installs: each completed value must equal the one of exactly the epoch
/// its destination reports, never a cross-plan mixture.
class EpochOracle {
 public:
  /// Records the runtime's current plan: call on construction of the
  /// runtime and after every round that replans.
  void Record(const SelfHealingRuntime& runtime) {
    executors_.emplace(
        runtime.base_epoch(),
        PlanExecutor(std::make_shared<CompiledPlan>(runtime.compiled()),
                     runtime.current_workload().functions, EnergyModel{}));
  }

  /// Appends "r<round> d<destination> epoch <e> got <value>" to `out` for
  /// each completed value of `data` that its epoch's executor disagrees
  /// with on `readings`.
  void Check(int round, const RuntimeNetwork::LossyResult& data,
             const std::vector<double>& readings,
             std::vector<std::string>& out) const {
    std::map<uint32_t, std::unordered_map<NodeId, double>> analytic;
    for (const auto& [destination, value] : data.destination_values) {
      const uint32_t epoch = data.destination_epochs.at(destination);
      auto [it, fresh] = analytic.try_emplace(epoch);
      if (fresh) {
        it->second = executors_.at(epoch).RunRound(readings).destination_values;
      }
      auto oracle_it = it->second.find(destination);
      if (oracle_it == it->second.end() ||
          !ValuesClose(value, oracle_it->second)) {
        std::ostringstream mismatch;
        mismatch << "r" << round << " d" << destination << " epoch " << epoch
                 << " got " << value;
        out.push_back(mismatch.str());
      }
    }
  }

 private:
  std::map<uint32_t, PlanExecutor> executors_;
};

/// For the 1x6 line MakeGrid(6, 1, 10.0, 15.0): destination 5 takes a
/// weighted sum of sources 0, 1 and 2.
inline Workload LineWorkload() {
  Workload workload;
  workload.tasks = {Task{5, {0, 1, 2}}};
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedSum;
  spec.weights = {{0, 1.0}, {1, 2.0}, {2, 3.0}};
  workload.specs = {spec};
  workload.RebuildFunctions();
  return workload;
}

/// The nodes a schedule must not kill: the destinations and the base.
inline std::vector<NodeId> ProtectedNodes(const Workload& workload,
                                          NodeId base) {
  std::vector<NodeId> nodes = Destinations(workload);
  if (std::find(nodes.begin(), nodes.end(), base) == nodes.end()) {
    nodes.push_back(base);
  }
  return nodes;
}

/// Reference for the full images a self-healing replan forces. A replan
/// forces one at every node other than the base that is believed alive and
/// either merged back (believed partitioned at the previous replan),
/// counted under `partition.merge_reconciliations`, or was readmitted
/// (believed dead at the previous replan) or bounced an install since the
/// previous replan, counted under `readmit.epoch_reconciliations`.
///
/// Bounces are read from `partition.epoch_divergences`. A round that
/// replans runs a control pass before the replan and one after it, and a
/// bounce in the second pass belongs to the next replan. The pass shows in
/// the node's epoch at the end of the round: a node that bounced the new
/// epoch holds a higher one, while a node that bounced the old epoch holds
/// one below the new epoch, which the replan opens above every foreign
/// epoch it has seen.
class ReconciliationReference {
 public:
  ReconciliationReference(const SelfHealingRuntime& runtime,
                          const obs::MetricsRegistry& metrics, NodeId base)
      : runtime_(runtime),
        metrics_(metrics),
        base_(base),
        applied_(runtime.network().node_count(),
                 SuspicionLedger::NodeBelief::kAlive) {
    Snapshot(epoch_, kEpochReconciliations);
    Snapshot(merge_, kMergeReconciliations);
    Snapshot(divergences_, kEpochDivergences);
  }

  /// Checks the per-node increments of both counters over the round just
  /// run against the reference; call after every RunRound.
  void CheckRound(int round, bool replanned) {
    using NodeBelief = SuspicionLedger::NodeBelief;
    std::vector<int64_t> epoch;
    std::vector<int64_t> merge;
    std::vector<int64_t> divergences;
    Snapshot(epoch, kEpochReconciliations);
    Snapshot(merge, kMergeReconciliations);
    Snapshot(divergences, kEpochDivergences);
    std::set<NodeId> bounced;
    std::set<NodeId> bounced_later;
    for (NodeId node = 0; node < static_cast<NodeId>(applied_.size());
         ++node) {
      if (divergences[node] == divergences_[node]) continue;
      if (replanned &&
          runtime_.network().plan_epoch(node) <= runtime_.base_epoch()) {
        bounced.insert(node);
      } else {
        bounced_later.insert(node);
      }
    }
    if (replanned) {
      bounced.merge(carried_);
      carried_ = std::move(bounced_later);
    } else {
      carried_.merge(bounced_later);
    }
    for (NodeId node = 0; node < static_cast<NodeId>(applied_.size());
         ++node) {
      int64_t want_epoch = 0;
      int64_t want_merge = 0;
      const NodeBelief now = runtime_.ledger().belief(node);
      if (replanned && node != base_ && now == NodeBelief::kAlive) {
        if (applied_[node] == NodeBelief::kPartitioned) {
          want_merge = 1;
        } else if (applied_[node] == NodeBelief::kDead ||
                   bounced.contains(node)) {
          want_epoch = 1;
        }
      }
      EXPECT_EQ(epoch[node] - epoch_[node], want_epoch)
          << "round " << round << " node " << node << " "
          << kEpochReconciliations;
      EXPECT_EQ(merge[node] - merge_[node], want_merge)
          << "round " << round << " node " << node << " "
          << kMergeReconciliations;
      if (replanned) applied_[node] = now;
    }
    epoch_ = std::move(epoch);
    merge_ = std::move(merge);
    divergences_ = std::move(divergences);
  }

 private:
  static constexpr const char* kEpochReconciliations =
      "readmit.epoch_reconciliations";
  static constexpr const char* kMergeReconciliations =
      "partition.merge_reconciliations";
  static constexpr const char* kEpochDivergences =
      "partition.epoch_divergences";

  void Snapshot(std::vector<int64_t>& values, const char* name) const {
    values.resize(applied_.size());
    for (NodeId node = 0; node < static_cast<NodeId>(values.size());
         ++node) {
      values[node] = metrics_.NodeValue(name, node);
    }
  }

  const SelfHealingRuntime& runtime_;
  const obs::MetricsRegistry& metrics_;
  NodeId base_;
  /// Each node's belief as of the last replan.
  std::vector<SuspicionLedger::NodeBelief> applied_;
  /// Counter values per node at the end of the last round.
  std::vector<int64_t> epoch_;
  std::vector<int64_t> merge_;
  std::vector<int64_t> divergences_;
  /// Nodes whose bounce belongs to the next replan.
  std::set<NodeId> carried_;
};

}  // namespace fault_test
}  // namespace m2m

#endif  // M2M_TESTS_FAULT_TEST_UTIL_H_
