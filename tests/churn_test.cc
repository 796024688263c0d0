#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "compile_digest.h"
#include "fault_test_util.h"
#include "lifecycle/admission.h"
#include "lifecycle/catalog.h"
#include "lifecycle/churn_schedule.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/tenant.h"
#include "obs/metrics.h"
#include "plan/consistency.h"
#include "plan/dissemination.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "plan/serialization.h"
#include "plan/tdma.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "sim/base_station.h"
#include "sim/fault_schedule.h"
#include "sim/readings.h"
#include "sim/self_healing.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using fault_test::Destinations;

Workload InitialWorkload(const Topology& topology, uint64_t seed) {
  WorkloadSpec spec;
  spec.destination_count = 5;
  spec.sources_per_destination = 5;
  spec.max_hops = 4;
  spec.seed = seed;
  return GenerateWorkload(topology, spec);
}

/// From-scratch oracle: plan + compile the catalog's workload with the same
/// options and epoch the manager uses, and encode every node image.
std::vector<std::vector<uint8_t>> FromScratchImages(
    const PathSystem& paths, const QueryCatalog& catalog,
    std::optional<GlobalPlan>* plan_out) {
  Workload workload = catalog.ToWorkload();
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan compiled = CompiledPlan::Compile(
      plan, workload.functions, MergePolicy::kGreedyMergePerEdge,
      static_cast<uint32_t>(catalog.version()));
  std::vector<std::vector<uint8_t>> images =
      EncodeAllNodeStates(compiled, workload.functions);
  if (plan_out != nullptr) plan_out->emplace(std::move(plan));
  return images;
}

/// Everything a rejection must leave untouched.
struct ManagerSnapshot {
  int64_t catalog_version;
  int catalog_size;
  std::vector<std::vector<uint8_t>> images;
  std::vector<Task> tasks;
};

ManagerSnapshot Capture(const QueryLifecycleManager& manager) {
  return ManagerSnapshot{manager.catalog().version(),
                         manager.catalog().size(), manager.images(),
                         manager.workload().tasks};
}

void ExpectUnchanged(const ManagerSnapshot& before,
                     const QueryLifecycleManager& manager) {
  EXPECT_EQ(before.catalog_version, manager.catalog().version());
  EXPECT_EQ(before.catalog_size, manager.catalog().size());
  EXPECT_EQ(before.images, manager.images());
  ASSERT_EQ(before.tasks.size(), manager.workload().tasks.size());
  for (size_t i = 0; i < before.tasks.size(); ++i) {
    EXPECT_EQ(before.tasks[i].destination,
              manager.workload().tasks[i].destination);
    EXPECT_EQ(before.tasks[i].sources, manager.workload().tasks[i].sources);
  }
}

/// A destination id no current query serves (and not the base station).
NodeId UnservedDestination(const Topology& topology,
                           const QueryCatalog& catalog, NodeId base) {
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (n != base && !catalog.Contains(n)) return n;
  }
  M2M_CHECK(false) << "no unserved destination";
}

/// A source the given query does not yet use.
NodeId AddableSource(const Topology& topology, const QueryDefinition& query) {
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (n != query.destination && !query.HasSource(n)) return n;
  }
  M2M_CHECK(false) << "no addable source";
}

FunctionSpec SpecOver(const std::vector<NodeId>& sources) {
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedAverage;
  double weight = 1.0;
  for (NodeId source : sources) {
    spec.weights.emplace_back(source, weight);
    weight += 0.25;
  }
  return spec;
}

// --- The tentpole differential: after ANY admit/retire/modify sequence,
// the live plan is byte-identical to a from-scratch compile of the final
// workload, and every incremental replan touched only Corollary-1-predicted
// edges. 20 seeds.
class ChurnDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnDifferential, IncrementalEqualsFromScratchAfterEveryMutation) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload initial = InitialWorkload(topology, seed * 13 + 7);
  NodeId base = PickBaseStation(topology);

  QueryLifecycleManager manager(topology, initial, base);
  ChurnScheduleOptions churn_options;
  churn_options.rounds = 10;
  churn_options.admissions = 3;
  churn_options.retirements = 2;
  churn_options.source_adds = 3;
  churn_options.source_removes = 2;
  churn_options.seed = seed;
  ChurnSchedule schedule =
      ChurnSchedule::Generate(topology, initial, {base}, churn_options);

  int admitted = 0;
  for (const ChurnEvent& event : schedule.events()) {
    MutationResult result = ApplyChurnEvent(manager, event);
    if (!result.decision.admitted) continue;
    ++admitted;

    // Corollary 1 accounting: the edges the plan actually changed on are a
    // subset of the predicted perturbation set for this workload delta.
    for (const DirectedEdge& edge : result.divergent_edges) {
      EXPECT_TRUE(std::binary_search(result.predicted_edges.begin(),
                                     result.predicted_edges.end(), edge))
          << "seed " << seed << ": edge " << edge.tail << "->" << edge.head
          << " outside the predicted set";
    }

    // Differential: incremental == from-scratch, down to the wire bytes.
    std::optional<GlobalPlan> fresh;
    std::vector<std::vector<uint8_t>> oracle_images =
        FromScratchImages(manager.paths(), manager.catalog(), &fresh);
    std::vector<std::string> divergence =
        FindPlanDivergence(manager.plan(), *fresh);
    EXPECT_TRUE(divergence.empty())
        << "seed " << seed << ": " << divergence.front();
    EXPECT_EQ(manager.images(), oracle_images) << "seed " << seed;
    EXPECT_TRUE(ValidatePlanConsistency(manager.plan())) << "seed " << seed;
  }
  EXPECT_GT(admitted, 0) << "seed " << seed;

  // Replay determinism: the same schedule against a fresh manager lands on
  // byte-identical state.
  QueryLifecycleManager replay(topology, initial, base);
  for (const ChurnEvent& event : schedule.events()) {
    ApplyChurnEvent(replay, event);
  }
  EXPECT_EQ(manager.catalog().version(), replay.catalog().version());
  EXPECT_EQ(manager.images(), replay.images()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, ChurnDifferential,
                         ::testing::Range<uint64_t>(1, 21));

// --- Churn composed with failures: the lifecycle manager drives a live
// self-healing runtime while a fault schedule kills nodes and links. The
// runtime must converge to the from-scratch plan of the FINAL workload over
// the TRUE surviving topology, and replay byte-identically. 20 seeds.
class ChurnWithFaults : public ::testing::TestWithParam<uint64_t> {};

struct ChurnFaultRun {
  std::string trace;
  std::vector<std::vector<uint8_t>> manager_images;
  int64_t manager_version = 0;
  std::vector<NodeId> believed_dead;
  int final_pending_installs = -1;
  std::vector<NodeId> final_incomplete;
  Workload final_workload;
  std::optional<GlobalPlan> final_plan;
};

ChurnFaultRun RunChurnWithFaults(const Topology& topology,
                                 const Workload& initial,
                                 const ChurnSchedule& churn,
                                 const FaultSchedule& faults, NodeId base,
                                 uint64_t readings_seed, int total_rounds) {
  EventTrace trace;
  trace.Append(faults.Describe());
  trace.Append(churn.Describe());

  SelfHealingRuntime runtime(topology, initial, base, SelfHealingOptions{});
  QueryLifecycleManager manager(topology, initial, base);
  manager.AttachRuntime(&runtime);

  ChurnFaultRun run;
  for (int round = 0; round < total_rounds; ++round) {
    for (const ChurnEvent& event : churn.EventsAt(round)) {
      MutationResult result = ApplyChurnEvent(manager, event);
      std::ostringstream line;
      line << "r" << round << " churn " << ToString(event.request.type)
           << " d" << event.request.destination << " -> "
           << (result.decision.admitted
                   ? "admitted"
                   : ToString(result.decision.reason));
      trace.Append(line.str());
    }

    ReadingGenerator readings(topology.node_count(),
                              readings_seed + static_cast<uint64_t>(round));
    LossyLinkModel physical;
    physical.attempt_delivers = [&faults, round](NodeId from, NodeId to,
                                                 int attempt) {
      return faults.AttemptDelivers(round, from, to, attempt);
    };
    physical.node_alive = [&faults, round](NodeId n) {
      return faults.NodeAliveAt(round, n);
    };
    SelfHealingRoundResult result =
        runtime.RunRound(round, readings.values(), physical, &trace);
    if (round == total_rounds - 1) {
      run.final_pending_installs = result.pending_installs;
      run.final_incomplete = result.data.incomplete_destinations;
    }
  }
  run.trace = trace.ToString();
  run.manager_images = manager.images();
  run.manager_version = manager.catalog().version();
  run.believed_dead = runtime.ledger().believed_dead();
  run.final_workload = runtime.current_workload();
  run.final_plan = runtime.plan();
  return run;
}

TEST_P(ChurnWithFaults, RuntimeConvergesToFinalWorkloadUnderFailures) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload initial = InitialWorkload(topology, seed * 29 + 11);
  NodeId base = PickBaseStation(topology);

  ChurnScheduleOptions churn_options;
  churn_options.rounds = 5;
  churn_options.seed = seed;
  ChurnSchedule churn =
      ChurnSchedule::Generate(topology, initial, {base}, churn_options);

  // Protect the initial destinations, the base station, and every node the
  // churn schedule references: a scheduled mutation must never race a node
  // death (an admitted query with a dead destination is a different test).
  std::vector<NodeId> referenced = churn.ReferencedNodes();
  std::set<NodeId> protect(referenced.begin(), referenced.end());
  for (NodeId d : Destinations(initial)) protect.insert(d);
  protect.insert(base);
  FaultScheduleOptions fault_options;
  fault_options.rounds = 5;
  fault_options.transient_link_fraction = 0.05;
  fault_options.transient_drop_probability = 0.5;
  fault_options.persistent_link_failures = 1;
  fault_options.node_deaths = 1;
  fault_options.seed = seed + 500;
  FaultSchedule faults = FaultSchedule::Generate(
      topology, {protect.begin(), protect.end()}, fault_options);

  const int total_rounds = fault_options.rounds + 12;
  ChurnFaultRun run = RunChurnWithFaults(topology, initial, churn, faults,
                                         base, seed + 2000, total_rounds);

  // Churn actually happened and the control plane drained.
  EXPECT_GT(run.manager_version, 0) << "seed " << seed;
  EXPECT_EQ(run.final_pending_installs, 0) << "seed " << seed;
  EXPECT_TRUE(run.final_incomplete.empty())
      << "seed " << seed << ": destination " << run.final_incomplete.front()
      << " did not converge";

  // The runtime detected exactly the schedule's deaths...
  std::vector<NodeId> true_dead = faults.DeadNodesThrough(total_rounds);
  EXPECT_EQ(run.believed_dead, true_dead) << "seed " << seed;

  // ...and its live plan equals a from-scratch plan of the FINAL churned
  // workload (believed-dead sources pruned) over the true surviving
  // topology — churn and failure recovery compose.
  Workload expected = run.final_workload;
  Topology masked = Topology::WithFailures(
      topology, faults.FailedLinksThrough(total_rounds), true_dead);
  PathSystem masked_paths(masked);
  GlobalPlan oracle = BuildPlan(
      std::make_shared<MulticastForest>(masked_paths, expected.tasks),
      expected.functions);
  ASSERT_TRUE(run.final_plan.has_value());
  std::vector<std::string> divergence =
      FindPlanDivergence(*run.final_plan, oracle);
  EXPECT_TRUE(divergence.empty())
      << "seed " << seed << ": " << divergence.front();

  // The runtime's final workload serves every catalog query that has a
  // believed-alive source, with dead sources pruned.
  ChurnFaultRun replay = RunChurnWithFaults(topology, initial, churn, faults,
                                            base, seed + 2000, total_rounds);
  EXPECT_EQ(run.trace, replay.trace) << "seed " << seed;
  EXPECT_EQ(run.manager_images, replay.manager_images) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, ChurnWithFaults,
                         ::testing::Range<uint64_t>(1, 21));

// --- Admission control: budget rejections are typed and provably leave
// the catalog, plan, and wire images untouched.

class AdmissionControlTest : public ::testing::Test {
 protected:
  AdmissionControlTest()
      : topology_(MakeGreatDuckIslandLike()),
        initial_(InitialWorkload(topology_, 41)),
        base_(PickBaseStation(topology_)) {}

  Topology topology_;
  Workload initial_;
  NodeId base_;
};

TEST_F(AdmissionControlTest, StateBoundRejectionMutatesNothing) {
  // A state-bound factor far below the Theorem 3 constant: any candidate
  // plan's total table state exceeds it, so the admission layer must
  // reject the query that would blow the budget.
  LifecycleOptions options;
  options.limits.state_bound_factor = 0.01;
  QueryLifecycleManager manager(topology_, initial_, base_, options);
  ManagerSnapshot before = Capture(manager);

  NodeId destination =
      UnservedDestination(topology_, manager.catalog(), base_);
  std::vector<NodeId> sources;
  for (NodeId n = 0; sources.size() < 3; ++n) {
    if (n != destination) sources.push_back(n);
  }
  MutationResult result =
      manager.AdmitQuery(destination, SpecOver(sources));

  EXPECT_FALSE(result.decision.admitted);
  EXPECT_EQ(result.decision.reason, AdmissionReason::kStateBound);
  EXPECT_GT(result.decision.observed, result.decision.limit);
  EXPECT_EQ(result.catalog_version, before.catalog_version);
  EXPECT_FALSE(manager.catalog().Contains(destination));
  ExpectUnchanged(before, manager);
}

TEST_F(AdmissionControlTest, TdmaCapacityRejectionMutatesNothing) {
  LifecycleOptions options;
  options.limits.max_tdma_slots = 1;  // No real schedule fits one slot.
  QueryLifecycleManager manager(topology_, initial_, base_, options);
  ManagerSnapshot before = Capture(manager);

  const QueryDefinition& query =
      manager.catalog().queries().begin()->second;
  NodeId source = AddableSource(topology_, query);
  MutationResult result =
      manager.AddSource(query.destination, source, 1.0);

  EXPECT_FALSE(result.decision.admitted);
  EXPECT_EQ(result.decision.reason, AdmissionReason::kTdmaCapacity);
  EXPECT_GT(result.decision.observed, result.decision.limit);
  ExpectUnchanged(before, manager);
}

TEST_F(AdmissionControlTest, EnergyBudgetRejectionMutatesNothing) {
  LifecycleOptions options;
  options.limits.max_node_energy_mj = 1e-6;  // Below any real TX cost.
  QueryLifecycleManager manager(topology_, initial_, base_, options);
  ManagerSnapshot before = Capture(manager);

  const QueryDefinition& query =
      manager.catalog().queries().begin()->second;
  NodeId source = AddableSource(topology_, query);
  MutationResult result =
      manager.AddSource(query.destination, source, 1.0);

  EXPECT_FALSE(result.decision.admitted);
  EXPECT_EQ(result.decision.reason, AdmissionReason::kEnergyBudget);
  EXPECT_NE(result.decision.offending_node, kInvalidNode);
  ExpectUnchanged(before, manager);
}

TEST_F(AdmissionControlTest, GenerousBudgetsAdmit) {
  LifecycleOptions options;
  options.limits.max_tdma_slots = 1 << 20;
  options.limits.max_node_energy_mj = 1e9;
  QueryLifecycleManager manager(topology_, initial_, base_, options);

  NodeId destination =
      UnservedDestination(topology_, manager.catalog(), base_);
  std::vector<NodeId> sources;
  for (NodeId n = 0; sources.size() < 3; ++n) {
    if (n != destination) sources.push_back(n);
  }
  MutationResult result =
      manager.AdmitQuery(destination, SpecOver(sources));
  EXPECT_TRUE(result.decision.admitted);
  EXPECT_EQ(result.decision.reason, AdmissionReason::kAdmitted);
  EXPECT_TRUE(manager.catalog().Contains(destination));
  EXPECT_EQ(result.catalog_version, 1);
  EXPECT_GT(result.images_shipped + result.bumps_shipped, 0);
  EXPECT_GT(result.delta_state_bytes, 0);
}

TEST_F(AdmissionControlTest, StructuralRejectionsAreTypedAndPure) {
  QueryLifecycleManager manager(topology_, initial_, base_);
  const QueryDefinition& query =
      manager.catalog().queries().begin()->second;
  NodeId served = query.destination;
  NodeId unserved = UnservedDestination(topology_, manager.catalog(), base_);
  NodeId existing_source = query.Sources().front();
  ManagerSnapshot before = Capture(manager);

  auto expect_reject = [&](const MutationResult& result,
                           AdmissionReason reason) {
    EXPECT_FALSE(result.decision.admitted);
    EXPECT_EQ(result.decision.reason, reason);
    EXPECT_FALSE(result.decision.detail.empty());
    ExpectUnchanged(before, manager);
  };

  expect_reject(manager.AdmitQuery(served, SpecOver({existing_source})),
                AdmissionReason::kDuplicateDestination);
  expect_reject(manager.AdmitQuery(unserved, FunctionSpec{}),
                AdmissionReason::kEmptySourceSet);
  expect_reject(manager.AdmitQuery(topology_.node_count(),
                                   SpecOver({existing_source})),
                AdmissionReason::kInvalidNode);
  expect_reject(manager.AdmitQuery(unserved, SpecOver({unserved})),
                AdmissionReason::kInvalidNode);
  FunctionSpec doubled = SpecOver({existing_source});
  doubled.weights.emplace_back(existing_source, 2.0);
  expect_reject(manager.AdmitQuery(unserved, doubled),
                AdmissionReason::kDuplicateSource);
  expect_reject(manager.RetireQuery(unserved),
                AdmissionReason::kUnknownDestination);
  expect_reject(manager.AddSource(unserved, existing_source, 1.0),
                AdmissionReason::kUnknownDestination);
  expect_reject(manager.AddSource(served, existing_source, 1.0),
                AdmissionReason::kDuplicateSource);
  expect_reject(manager.AddSource(served, served, 1.0),
                AdmissionReason::kInvalidNode);
  expect_reject(manager.RemoveSource(served, unserved),
                AdmissionReason::kUnknownSource);
  expect_reject(manager.RemoveSource(unserved, existing_source),
                AdmissionReason::kUnknownDestination);
}

TEST_F(AdmissionControlTest, LastSourceIsProtectedAndCatalogDrainsToZero) {
  // Two small queries; drain one down to a single source, then hit the
  // floor: the last SOURCE of a live query must survive. The last QUERY
  // must not — draining the catalog to zero is legal.
  Workload small;
  small.tasks = {Task{5, {0, 1}}, Task{6, {2, 3}}};
  FunctionSpec spec_a = SpecOver({0, 1});
  FunctionSpec spec_b = SpecOver({2, 3});
  small.specs = {spec_a, spec_b};
  small.RebuildFunctions();
  QueryLifecycleManager manager(topology_, small, base_);

  EXPECT_TRUE(manager.RemoveSource(5, 0).decision.admitted);
  MutationResult last_source = manager.RemoveSource(5, 1);
  EXPECT_FALSE(last_source.decision.admitted);
  EXPECT_EQ(last_source.decision.reason, AdmissionReason::kEmptySourceSet);

  // Regression: retiring the last resident query used to reject with a
  // bogus kEmptySourceSet. It must retire cleanly: empty catalog, empty
  // workload, and retraction images disseminated to every node that held
  // plan state.
  EXPECT_TRUE(manager.RetireQuery(5).decision.admitted);
  MutationResult last_query = manager.RetireQuery(6);
  EXPECT_TRUE(last_query.decision.admitted);
  EXPECT_EQ(last_query.refcount, 0);
  EXPECT_EQ(manager.catalog().size(), 0);
  EXPECT_TRUE(manager.workload().tasks.empty());
  EXPECT_GT(last_query.images_shipped, 0);

  // The empty state is a first-class epoch: live images equal a
  // from-scratch encode of the empty catalog, and a later admission
  // replans back out of it.
  std::vector<std::vector<uint8_t>> oracle =
      FromScratchImages(manager.paths(), manager.catalog(), nullptr);
  EXPECT_EQ(manager.images(), oracle);
  MutationResult readmit = manager.AdmitQuery(5, spec_a);
  EXPECT_TRUE(readmit.decision.admitted);
  EXPECT_EQ(manager.catalog().size(), 1);
  oracle = FromScratchImages(manager.paths(), manager.catalog(), nullptr);
  EXPECT_EQ(manager.images(), oracle);
}

TEST_F(AdmissionControlTest, DrainToZeroThenReadmitConvergesWithRuntime) {
  // Satellite regression: drain the catalog to zero with a live runtime
  // attached, run data rounds over the empty forest, then readmit. The
  // retraction must disseminate, the executor must handle the empty
  // forest, and the readmission must replan from empty and converge.
  Workload small;
  small.tasks = {Task{5, {0, 1}}, Task{6, {2, 3}}};
  small.specs = {SpecOver({0, 1}), SpecOver({2, 3})};
  small.RebuildFunctions();
  SelfHealingRuntime runtime(topology_, small, base_, SelfHealingOptions{});
  QueryLifecycleManager manager(topology_, small, base_);
  manager.AttachRuntime(&runtime);

  auto run_rounds_until_drained = [&](int first_round) {
    SelfHealingRoundResult result;
    int round = first_round;
    for (; round < first_round + 10; ++round) {
      ReadingGenerator readings(topology_.node_count(),
                                900 + static_cast<uint64_t>(round));
      LossyLinkModel physical;  // Perfect network.
      physical.attempt_delivers = [](NodeId, NodeId, int) { return true; };
      physical.node_alive = [](NodeId) { return true; };
      result = runtime.RunRound(round, readings.values(), physical, nullptr);
      if (result.pending_installs == 0) break;
    }
    EXPECT_EQ(result.pending_installs, 0);
    EXPECT_TRUE(result.data.incomplete_destinations.empty());
    return round + 1;
  };

  int next_round = run_rounds_until_drained(0);
  uint32_t max_epoch_before = 0;
  for (NodeId n = 0; n < topology_.node_count(); ++n) {
    max_epoch_before =
        std::max(max_epoch_before, runtime.network().plan_epoch(n));
  }

  ASSERT_TRUE(manager.RetireQuery(5).decision.admitted);
  ASSERT_TRUE(manager.RetireQuery(6).decision.admitted);
  EXPECT_EQ(manager.catalog().size(), 0);

  // The runtime picks the submitted (empty) workload up on its next round
  // and keeps running the empty forest without tripping any invariant.
  next_round = run_rounds_until_drained(next_round);
  EXPECT_TRUE(runtime.current_workload().tasks.empty());
  uint32_t max_epoch_after = 0;
  for (NodeId n = 0; n < topology_.node_count(); ++n) {
    max_epoch_after =
        std::max(max_epoch_after, runtime.network().plan_epoch(n));
  }
  EXPECT_GT(max_epoch_after, max_epoch_before)
      << "retraction never reached the network";

  // Readmit from empty and converge to the from-scratch plan.
  ASSERT_TRUE(manager.AdmitQuery(5, SpecOver({0, 1})).decision.admitted);
  run_rounds_until_drained(next_round);
  ASSERT_EQ(runtime.current_workload().tasks.size(), 1u);
  Workload expected = runtime.current_workload();
  GlobalPlan oracle = BuildPlan(
      std::make_shared<MulticastForest>(manager.paths(), expected.tasks),
      expected.functions);
  std::vector<std::string> divergence =
      FindPlanDivergence(runtime.plan(), oracle);
  EXPECT_TRUE(divergence.empty()) << divergence.front();
}

TEST_F(AdmissionControlTest, MetricsRecordMutationOutcomes) {
  obs::MetricsRegistry metrics;
  QueryLifecycleManager manager(topology_, initial_, base_);
  manager.set_metrics(&metrics);
  EXPECT_EQ(metrics.Total("qlm.catalog_size"),
            static_cast<int64_t>(initial_.tasks.size()));

  // Copy before mutating: a committed mutation replaces the catalog, so
  // references into it do not survive.
  NodeId destination = manager.catalog().queries().begin()->first;
  NodeId source =
      AddableSource(topology_, manager.catalog().Get(destination));
  ASSERT_TRUE(manager.AddSource(destination, source, 1.0).decision.admitted);
  ASSERT_FALSE(
      manager.AddSource(destination, source, 1.0).decision.admitted);

  EXPECT_EQ(metrics.Total("qlm.admissions"), 1);
  EXPECT_EQ(metrics.Total("qlm.rejections"), 1);
  EXPECT_EQ(metrics.Total("qlm.rejections.duplicate_source"), 1);
  EXPECT_EQ(metrics.Total("qlm.catalog_version"), 1);
  EXPECT_EQ(metrics.Total("qlm.replans"), 1);
  EXPECT_EQ(metrics.Total("qlm.catalog_logical_size"),
            static_cast<int64_t>(initial_.tasks.size()));
  EXPECT_GT(metrics.Total("qlm.replan_edges_reused"), 0);
  EXPECT_GT(metrics.Total("qlm.delta_state_bytes"), 0);
}

// Source churn (a node dies or is deployed) is local in the Corollary 1
// sense: each mutation re-optimizes a handful of edges, reuses the rest,
// and ships a small image delta.
TEST_F(AdmissionControlTest, SourceChurnReusesMostEdges) {
  QueryLifecycleManager manager(topology_, initial_, base_);
  std::vector<NodeId> destinations;
  for (const auto& [destination, query] : manager.catalog().queries()) {
    destinations.push_back(destination);
  }
  int64_t reused = 0;
  int64_t reoptimized = 0;
  int64_t shipped = 0;
  int64_t delta_bytes = 0;
  for (NodeId destination : destinations) {
    // Copy before mutating: a commit replaces the catalog.
    const QueryDefinition query = manager.catalog().Get(destination);
    MutationResult added = manager.AddSource(
        destination, AddableSource(topology_, query), 1.0);
    MutationResult removed =
        manager.RemoveSource(destination, query.Sources().front());
    for (const MutationResult& result : {added, removed}) {
      ASSERT_TRUE(result.decision.admitted) << result.decision.detail;
      reused += result.replan.edges_reused;
      reoptimized += result.replan.edges_reoptimized;
      shipped += result.images_shipped + result.bumps_shipped;
      delta_bytes += result.delta_state_bytes;
    }
  }
  EXPECT_GT(reoptimized, 0);
  EXPECT_GT(reused, 5 * reoptimized);
  EXPECT_GT(shipped, 0);
  EXPECT_GT(delta_bytes, 0);
}

// --- Determinism audit regression (satellite): two different mutation
// orders that reach the same catalog content must produce byte-identical
// compiled plans and wire images — no container-iteration or
// arrival-order effect may leak into plan or wire bytes.
TEST(ChurnOrderIndependenceTest, SameContentSamePlanBytes) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload initial = InitialWorkload(topology, 97);
  NodeId base = PickBaseStation(topology);

  QueryLifecycleManager a(topology, initial, base);
  QueryLifecycleManager b(topology, initial, base);
  NodeId new_destination =
      UnservedDestination(topology, a.catalog(), base);
  std::vector<NodeId> new_sources;
  for (NodeId n = 0; new_sources.size() < 3; ++n) {
    if (n != new_destination) new_sources.push_back(n);
  }
  FunctionSpec new_spec = SpecOver(new_sources);
  const QueryDefinition& existing =
      a.catalog().queries().begin()->second;
  NodeId target = existing.destination;
  NodeId extra = AddableSource(topology, existing);

  // Order A: admit the new query, then grow the existing one.
  ASSERT_TRUE(a.AdmitQuery(new_destination, new_spec).decision.admitted);
  ASSERT_TRUE(a.AddSource(target, extra, 2.0).decision.admitted);
  // Order B: grow first, then admit — same final content.
  ASSERT_TRUE(b.AddSource(target, extra, 2.0).decision.admitted);
  ASSERT_TRUE(b.AdmitQuery(new_destination, new_spec).decision.admitted);

  EXPECT_EQ(a.catalog().version(), b.catalog().version());
  EXPECT_TRUE(FindPlanDivergence(a.plan(), b.plan()).empty());
  EXPECT_EQ(a.images(), b.images());

  // And a spec whose weights arrive unsorted canonicalizes to the same
  // bytes as the sorted submission.
  QueryLifecycleManager c(topology, initial, base);
  FunctionSpec reversed = new_spec;
  std::reverse(reversed.weights.begin(), reversed.weights.end());
  ASSERT_TRUE(c.AddSource(target, extra, 2.0).decision.admitted);
  ASSERT_TRUE(c.AdmitQuery(new_destination, reversed).decision.admitted);
  EXPECT_EQ(b.images(), c.images());
}

// --- Idempotent resubmission (bugfix satellite): a byte-identical
// AdmitQuery resubmission is a pure refcount bump — no replan, no version
// bump, no image delta — and releasing the duplicate hold is equally pure.
// 20-seed replay regression over churned catalogs.
class DedupReplay : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DedupReplay, ByteIdenticalResubmissionIsIdempotent) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload initial = InitialWorkload(topology, seed * 19 + 5);
  NodeId base = PickBaseStation(topology);

  QueryLifecycleManager manager(topology, initial, base);
  ChurnScheduleOptions churn_options;
  churn_options.seed = seed;
  ChurnSchedule schedule =
      ChurnSchedule::Generate(topology, initial, {base}, churn_options);
  for (const ChurnEvent& event : schedule.events()) {
    ApplyChurnEvent(manager, event);
  }

  // Copy first: a resubmission replaces the catalog object (refcount
  // bookkeeping), so references into it do not survive.
  std::vector<std::pair<NodeId, FunctionSpec>> live;
  for (const auto& [destination, query] : manager.catalog().queries()) {
    live.emplace_back(destination, query.spec);
  }
  ASSERT_FALSE(live.empty());
  ManagerSnapshot before = Capture(manager);

  bool reverse = false;
  for (const auto& [destination, spec] : live) {
    // Alternate submission order of the weights: dedup keys on the
    // CANONICAL (destination, source-set, function) form.
    FunctionSpec submitted = spec;
    if (reverse) {
      std::reverse(submitted.weights.begin(), submitted.weights.end());
    }
    reverse = !reverse;
    MutationResult result = manager.AdmitQuery(destination, submitted);
    EXPECT_TRUE(result.decision.admitted) << "seed " << seed;
    EXPECT_TRUE(result.deduplicated) << "seed " << seed;
    EXPECT_EQ(result.refcount, 2) << "seed " << seed;
    EXPECT_EQ(result.catalog_version, before.catalog_version);
    EXPECT_EQ(result.replan.edges_reoptimized, 0);
    EXPECT_EQ(result.images_shipped + result.bumps_shipped, 0);
    EXPECT_EQ(manager.catalog().RefCount(destination), 2);
    ExpectUnchanged(before, manager);
  }

  // Releasing the duplicate holds is refcount traffic too: the physical
  // query — and all plan state — survives until the LAST hold goes.
  for (const auto& [destination, spec] : live) {
    MutationResult result = manager.RetireQuery(destination);
    EXPECT_TRUE(result.decision.admitted) << "seed " << seed;
    EXPECT_TRUE(result.deduplicated) << "seed " << seed;
    EXPECT_EQ(result.refcount, 1) << "seed " << seed;
    EXPECT_TRUE(manager.catalog().Contains(destination));
    ExpectUnchanged(before, manager);
  }
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, DedupReplay,
                         ::testing::Range<uint64_t>(1, 21));

// --- Batched replay purity (bugfix satellite): replaying a ChurnSchedule
// as per-round batches — or as ONE batch — lands on byte-identical final
// catalogs, plans, and wire images as sequential replay, with identical
// per-request outcomes, while paying ONE replan per material batch.
// 20 seeds.
class BatchedChurnReplay : public ::testing::TestWithParam<uint64_t> {};

std::vector<MutationRequest> Requests(const std::vector<ChurnEvent>& events) {
  std::vector<MutationRequest> requests;
  for (const ChurnEvent& event : events) requests.push_back(event.request);
  return requests;
}

TEST_P(BatchedChurnReplay, BatchedEqualsSequentialByteIdentical) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload initial = InitialWorkload(topology, seed * 17 + 3);
  NodeId base = PickBaseStation(topology);

  ChurnScheduleOptions churn_options;
  churn_options.rounds = 10;
  churn_options.admissions = 3;
  churn_options.retirements = 2;
  churn_options.source_adds = 3;
  churn_options.source_removes = 2;
  churn_options.seed = seed;
  ChurnSchedule schedule =
      ChurnSchedule::Generate(topology, initial, {base}, churn_options);

  QueryLifecycleManager sequential(topology, initial, base);
  std::vector<AdmissionReason> sequential_outcomes;
  for (const ChurnEvent& event : schedule.events()) {
    MutationResult result = ApplyChurnEvent(sequential, event);
    sequential_outcomes.push_back(result.decision.admitted
                                      ? AdmissionReason::kAdmitted
                                      : result.decision.reason);
  }

  obs::MetricsRegistry metrics;
  QueryLifecycleManager batched(topology, initial, base);
  batched.set_metrics(&metrics);
  std::vector<AdmissionReason> batched_outcomes;
  int material_batches = 0;
  for (int round = 0; round < churn_options.rounds; ++round) {
    std::vector<ChurnEvent> events = schedule.EventsAt(round);
    if (events.empty()) continue;
    BatchResult batch = batched.ApplyBatch(Requests(events));
    ASSERT_EQ(batch.outcomes.size(), events.size());
    EXPECT_FALSE(batch.sequential_fallback) << "seed " << seed;
    if (batch.committed) ++material_batches;
    for (const MutationOutcome& outcome : batch.outcomes) {
      batched_outcomes.push_back(outcome.decision.admitted
                                     ? AdmissionReason::kAdmitted
                                     : outcome.decision.reason);
    }
  }

  // Identical per-request outcomes, byte-identical final state.
  EXPECT_EQ(sequential_outcomes, batched_outcomes) << "seed " << seed;
  EXPECT_EQ(sequential.catalog(), batched.catalog()) << "seed " << seed;
  EXPECT_EQ(sequential.catalog().version(), batched.catalog().version());
  EXPECT_EQ(sequential.images(), batched.images()) << "seed " << seed;
  EXPECT_TRUE(
      FindPlanDivergence(sequential.plan(), batched.plan()).empty())
      << "seed " << seed;

  // Amortization: exactly one replan per material batch, not per event.
  EXPECT_EQ(metrics.Total("qlm.replans"), material_batches);
  EXPECT_EQ(metrics.Total("qlm.batch.commits"), material_batches);
  EXPECT_EQ(metrics.Total("qlm.batch.fallbacks"), 0);

  // Order-of-batching independence: the WHOLE schedule as one batch lands
  // on the same bytes again.
  QueryLifecycleManager one_shot(topology, initial, base);
  BatchResult whole = one_shot.ApplyBatch(Requests(schedule.events()));
  ASSERT_EQ(whole.outcomes.size(), schedule.events().size());
  for (size_t i = 0; i < whole.outcomes.size(); ++i) {
    EXPECT_EQ(whole.outcomes[i].decision.admitted
                  ? AdmissionReason::kAdmitted
                  : whole.outcomes[i].decision.reason,
              sequential_outcomes[i])
        << "seed " << seed << " request " << i;
  }
  EXPECT_EQ(one_shot.catalog(), sequential.catalog()) << "seed " << seed;
  EXPECT_EQ(one_shot.images(), sequential.images()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, BatchedChurnReplay,
                         ::testing::Range<uint64_t>(1, 21));

// --- ChurnSchedule: deterministic, bounded, and respectful of the
// forbidden set.
TEST(ChurnScheduleTest, DeterministicAndBounded) {
  Topology topology = MakeGreatDuckIslandLike();
  Workload initial = InitialWorkload(topology, 7);
  NodeId base = PickBaseStation(topology);

  ChurnScheduleOptions options;
  options.seed = 42;
  ChurnSchedule one =
      ChurnSchedule::Generate(topology, initial, {base}, options);
  ChurnSchedule two =
      ChurnSchedule::Generate(topology, initial, {base}, options);
  EXPECT_EQ(one.Describe(), two.Describe());
  EXPECT_EQ(one.events().size(), two.events().size());
  EXPECT_FALSE(one.events().empty());

  int last_round = 0;
  for (const ChurnEvent& event : one.events()) {
    EXPECT_GE(event.round, 1);
    EXPECT_LE(event.round, options.rounds - 1);
    EXPECT_GE(event.round, last_round);  // Sorted by round.
    last_round = event.round;
    if (event.request.type == MutationType::kAdmit ||
        event.request.type == MutationType::kRetire) {
      EXPECT_NE(event.request.destination, base);
    }
  }

  ChurnScheduleOptions other = options;
  other.seed = 43;
  ChurnSchedule three =
      ChurnSchedule::Generate(topology, initial, {base}, other);
  EXPECT_NE(one.Describe(), three.Describe());

  // EventsAt partitions events().
  size_t counted = 0;
  for (int round = 0; round < options.rounds; ++round) {
    counted += one.EventsAt(round).size();
  }
  EXPECT_EQ(counted, one.events().size());
}

// A one-request batch whose candidate trips a budget is a plain rejection
// of that request: no sequential fallback, no second replan, and the same
// answer the single-mutation call gives. A two-request batch over the same
// budget still falls back.
TEST_F(AdmissionControlTest, OneRequestBatchOverBudgetIsAPlainRejection) {
  LifecycleOptions options;
  options.limits.max_tdma_slots = 1;  // No real schedule fits one slot.
  obs::MetricsRegistry metrics;
  QueryLifecycleManager manager(topology_, initial_, base_, options);
  manager.set_metrics(&metrics);
  ManagerSnapshot before = Capture(manager);
  const QueryDefinition& query = manager.catalog().queries().begin()->second;
  const MutationRequest request = MutationRequest::AddSource(
      query.destination, AddableSource(topology_, query), 1.0);

  BatchResult batch = manager.ApplyBatch({request});
  EXPECT_FALSE(batch.sequential_fallback);
  EXPECT_FALSE(batch.committed);
  EXPECT_EQ(batch.accepted, 0);
  EXPECT_EQ(batch.rejected, 1);
  ASSERT_EQ(batch.outcomes.size(), 1u);
  EXPECT_EQ(batch.outcomes[0].decision.reason, AdmissionReason::kTdmaCapacity);
  EXPECT_EQ(batch.outcomes[0].refcount, 0);
  EXPECT_FALSE(batch.outcomes[0].deduplicated);
  EXPECT_EQ(batch.commit.decision.reason, AdmissionReason::kTdmaCapacity);
  EXPECT_EQ(batch.commit.catalog_version, before.catalog_version);
  EXPECT_EQ(metrics.Total("qlm.batch.batches"), 1);
  EXPECT_EQ(metrics.Total("qlm.batch.fallbacks"), 0);
  EXPECT_EQ(metrics.Total("qlm.batch.commits"), 0);
  EXPECT_EQ(metrics.Total("qlm.rejections.tdma_capacity"), 1);
  EXPECT_EQ(metrics.Total("qlm.replans"), 0);
  ExpectUnchanged(before, manager);

  const MutationResult single = manager.AddSource(
      request.destination, request.source, request.weight);
  EXPECT_EQ(single.decision.reason, batch.outcomes[0].decision.reason);
  EXPECT_EQ(single.decision.detail, batch.outcomes[0].decision.detail);
  EXPECT_EQ(single.catalog_version, batch.commit.catalog_version);
  EXPECT_EQ(metrics.Total("qlm.batch.batches"), 1);

  BatchResult pair = manager.ApplyBatch(
      {request, MutationRequest::Retire(query.destination)});
  EXPECT_TRUE(pair.sequential_fallback);
  EXPECT_EQ(metrics.Total("qlm.batch.fallbacks"), 1);
  EXPECT_EQ(pair.outcomes[0].decision.reason, AdmissionReason::kTdmaCapacity);
}

// A lifetime-gate rejection lands on its own counter: the reason list the
// counters are registered from includes kBatteryLifetime, so later reasons
// are not shifted onto it.
TEST_F(AdmissionControlTest, LifetimeRejectionCountsAsBatteryLifetime) {
  LifecycleOptions options;
  options.limits.lifetime_budget_rounds = 1'000'000;
  options.limits.node_residual_mj.assign(topology_.node_count(), 1.0);
  obs::MetricsRegistry metrics;
  QueryLifecycleManager manager(topology_, initial_, base_, options);
  manager.set_metrics(&metrics);
  const QueryDefinition& query = manager.catalog().queries().begin()->second;

  const MutationResult result = manager.AddSource(
      query.destination, AddableSource(topology_, query), 1.0);
  EXPECT_EQ(result.decision.reason, AdmissionReason::kBatteryLifetime);
  EXPECT_EQ(metrics.Total("qlm.rejections"), 1);
  EXPECT_EQ(metrics.Total("qlm.rejections.battery_lifetime"), 1);
  EXPECT_EQ(metrics.Total("qlm.rejections.tenant_unknown"), 0);
  EXPECT_NE(metrics.ToJson().find("qlm.rejections.battery_lifetime"),
            std::string::npos);
}

// --- Image-delta exactness: a commit re-encodes only the nodes whose
// tables can have changed and restamps every other image's epoch in place.
// After each commit the images equal a full re-encode of the live plan, and
// the shipped counts equal DiffNodeImages over the images before it.

void ExpectExactDelta(const QueryLifecycleManager& manager,
                      const std::vector<std::vector<uint8_t>>& before,
                      const MutationResult& result) {
  const std::vector<std::vector<uint8_t>> full =
      EncodeAllNodeStates(manager.compiled(), manager.workload().functions);
  EXPECT_EQ(manager.images(), full);
  int images = 0;
  int bumps = 0;
  int64_t bytes = 0;
  for (const NodeImageDelta& delta : DiffNodeImages(before, full)) {
    if (delta.ship_image) {
      ++images;
      bytes += static_cast<int64_t>(full[delta.node].size());
    } else {
      ++bumps;
      bytes += kEpochBumpPayloadBytes;
    }
  }
  EXPECT_EQ(result.images_shipped, images);
  EXPECT_EQ(result.bumps_shipped, bumps);
  EXPECT_EQ(result.delta_state_bytes, bytes);
}

// Same sources, new weights: the function changes, no edge instance does,
// so only the pre-aggregating nodes on the destination's routes re-ship.
TEST_F(AdmissionControlTest, ImageDeltaRetireAndReadmitWithNewWeights) {
  QueryLifecycleManager manager(topology_, initial_, base_);
  const QueryDefinition query = manager.catalog().queries().begin()->second;
  FunctionSpec reweighted = query.spec;
  for (auto& [source, weight] : reweighted.weights) weight *= 2.0;
  const std::vector<std::vector<uint8_t>> before = manager.images();

  const BatchResult batch =
      manager.ApplyBatch({MutationRequest::Retire(query.destination),
                          MutationRequest::Admit(query.destination,
                                                 reweighted)});
  ASSERT_TRUE(batch.committed);
  EXPECT_TRUE(batch.commit.divergent_edges.empty());
  EXPECT_EQ(batch.commit.replan.edges_reoptimized, 0);
  EXPECT_GT(batch.commit.images_shipped, 0);
  ExpectExactDelta(manager, before, batch.commit);
}

// 130 commits carry the catalog version, and with it the epoch varint,
// across 127 -> 128, where every restamped image grows by one byte.
TEST_F(AdmissionControlTest, ImageDeltaAcrossTheEpochVarintBoundary) {
  QueryLifecycleManager manager(topology_, initial_, base_);
  const QueryDefinition query = manager.catalog().queries().begin()->second;
  const NodeId source = AddableSource(topology_, query);
  bool crossed = false;
  for (bool add = true; manager.catalog().version() < 130; add = !add) {
    const std::vector<std::vector<uint8_t>> before = manager.images();
    const int64_t version = manager.catalog().version();
    const MutationResult result =
        add ? manager.AddSource(query.destination, source, 1.0)
            : manager.RemoveSource(query.destination, source);
    ASSERT_TRUE(result.decision.admitted);
    ASSERT_GT(manager.catalog().version(), version);
    ExpectExactDelta(manager, before, result);
    if (version < 128 && manager.catalog().version() >= 128) {
      crossed = true;
      EXPECT_EQ(manager.images()[base_].size(), before[base_].size() + 1);
    }
  }
  EXPECT_TRUE(crossed);
}

TEST_F(AdmissionControlTest, ImageDeltaDrainToEmptyAndReadmit) {
  QueryLifecycleManager manager(topology_, initial_, base_);
  std::vector<QueryDefinition> queries;
  for (const auto& [destination, query] : manager.catalog().queries()) {
    queries.push_back(query);
  }
  for (const QueryDefinition& query : queries) {
    const std::vector<std::vector<uint8_t>> before = manager.images();
    const MutationResult result = manager.RetireQuery(query.destination);
    ASSERT_TRUE(result.decision.admitted);
    ExpectExactDelta(manager, before, result);
  }
  EXPECT_EQ(manager.catalog().size(), 0);
  for (const QueryDefinition& query : queries) {
    const std::vector<std::vector<uint8_t>> before = manager.images();
    const MutationResult result =
        manager.AdmitQuery(query.destination, query.spec);
    ASSERT_TRUE(result.decision.admitted);
    ExpectExactDelta(manager, before, result);
  }
}

// A budget rejection after in-place commits leaves every image untouched.
TEST_F(AdmissionControlTest, ImageDeltaBudgetRejectionKeepsImages) {
  QueryLifecycleManager probe(topology_, initial_, base_);
  LifecycleOptions options;
  options.limits.max_tdma_slots =
      BuildTdmaSchedule(probe.compiled(), topology_).slot_count;
  QueryLifecycleManager manager(topology_, initial_, base_, options);
  const QueryDefinition query = manager.catalog().queries().begin()->second;
  const std::vector<std::vector<uint8_t>> before = manager.images();
  const MutationResult removed =
      manager.RemoveSource(query.destination, query.Sources().front());
  ASSERT_TRUE(removed.decision.admitted);
  ExpectExactDelta(manager, before, removed);

  // Admissions with every node as a source outgrow the slot budget.
  const ManagerSnapshot snapshot = Capture(manager);
  const NodeId destination =
      UnservedDestination(topology_, manager.catalog(), base_);
  std::vector<NodeId> sources;
  for (NodeId n = 0; n < topology_.node_count(); ++n) {
    if (n != destination) sources.push_back(n);
  }
  const MutationResult rejected =
      manager.AdmitQuery(destination, SpecOver(sources));
  EXPECT_EQ(rejected.decision.reason, AdmissionReason::kTdmaCapacity);
  ExpectUnchanged(snapshot, manager);
}

// --- Lifecycle golden: seeded request streams through every entry point
// of the request pipeline — single mutations, ApplyChurnEvent, multi-
// request batches (including budget-contended ones that fall back to
// sequential application), dedup acquires and releases, a drain to the
// empty catalog and readmission — plus the same kind of stream through the
// multi-tenant frontend. The digests fold every result field and both
// metrics snapshots; they were recorded with separate single-request and
// batch pipelines, so one pipeline must reproduce them bit for bit.

bool IsBudgetReason(AdmissionReason reason) {
  return reason == AdmissionReason::kStateBound ||
         reason == AdmissionReason::kTdmaCapacity ||
         reason == AdmissionReason::kEnergyBudget;
}

class LifecycleDigest {
 public:
  void Add(uint64_t value) { fnv_.Add(value); }
  void Add(double value) { fnv_.Add(std::bit_cast<uint64_t>(value)); }
  void Add(const std::string& text) {
    fnv_.Add(text.size());
    for (char c : text) fnv_.Add(static_cast<uint8_t>(c));
  }
  void Add(const AdmissionDecision& decision) {
    Add(static_cast<uint64_t>(decision.admitted));
    Add(static_cast<uint64_t>(decision.reason));
    Add(decision.detail);
    Add(static_cast<uint64_t>(decision.offending_node));
    Add(decision.observed);
    Add(decision.limit);
  }
  void Add(const MutationOutcome& outcome) {
    Add(outcome.decision);
    Add(static_cast<uint64_t>(outcome.deduplicated));
    Add(static_cast<uint64_t>(outcome.refcount));
  }
  void Add(const std::vector<DirectedEdge>& edges) {
    Add(static_cast<uint64_t>(edges.size()));
    for (const DirectedEdge& edge : edges) {
      Add(static_cast<uint64_t>(edge.tail));
      Add(static_cast<uint64_t>(edge.head));
    }
  }
  void Add(const MutationResult& result) {
    Add(result.decision);
    Add(static_cast<uint64_t>(result.catalog_version));
    Add(static_cast<uint64_t>(result.deduplicated));
    Add(static_cast<uint64_t>(result.refcount));
    Add(static_cast<uint64_t>(result.replan.edges_total));
    Add(static_cast<uint64_t>(result.replan.edges_reused));
    Add(static_cast<uint64_t>(result.replan.edges_reoptimized));
    Add(result.predicted_edges);
    Add(result.divergent_edges);
    Add(static_cast<uint64_t>(result.images_shipped));
    Add(static_cast<uint64_t>(result.bumps_shipped));
    Add(static_cast<uint64_t>(result.delta_state_bytes));
  }
  template <typename Batch>
  void AddBatch(const Batch& batch) {
    Add(static_cast<uint64_t>(batch.outcomes.size()));
    for (const MutationOutcome& outcome : batch.outcomes) Add(outcome);
    Add(static_cast<uint64_t>(batch.accepted));
    Add(static_cast<uint64_t>(batch.rejected));
    Add(static_cast<uint64_t>(batch.committed));
    Add(static_cast<uint64_t>(batch.sequential_fallback));
    Add(batch.commit);
  }
  void Add(const QueryLifecycleManager& manager) {
    Add(static_cast<uint64_t>(manager.catalog().version()));
    Add(static_cast<uint64_t>(manager.catalog().size()));
    for (const std::vector<uint8_t>& image : manager.images()) {
      Add(static_cast<uint64_t>(image.size()));
      for (uint8_t byte : image) Add(static_cast<uint64_t>(byte));
    }
  }
  uint64_t value() const { return fnv_.value(); }

 private:
  Fnv1a64 fnv_;
};

struct GoldenStreamRun {
  uint64_t manager_digest = 0;
  uint64_t frontend_digest = 0;
  int fallbacks = 0;
  int budget_rejections = 0;
  int dedup_acquires = 0;
  int dedup_releases = 0;
  std::set<AdmissionReason> tenant_rejections;
  bool drained = false;
};

/// `count` distinct nodes other than `destination`, drawn from `rng`.
std::vector<NodeId> DrawSources(const Topology& topology, NodeId destination,
                                int count, Rng& rng) {
  std::vector<NodeId> sources;
  while (static_cast<int>(sources.size()) < count) {
    const NodeId n = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(topology.node_count())));
    if (n != destination &&
        std::find(sources.begin(), sources.end(), n) == sources.end()) {
      sources.push_back(n);
    }
  }
  return sources;
}

NodeId DrawUnserved(const Topology& topology, const QueryCatalog& catalog,
                    NodeId base, Rng& rng) {
  while (true) {
    const NodeId n = static_cast<NodeId>(rng.UniformInt(
        static_cast<uint64_t>(topology.node_count())));
    if (n != base && !catalog.Contains(n)) return n;
  }
}

NodeId DrawServed(const QueryCatalog& catalog, Rng& rng) {
  auto it = catalog.queries().begin();
  std::advance(it, static_cast<ptrdiff_t>(rng.UniformInt(
                       static_cast<uint64_t>(catalog.size()))));
  return it->first;
}

/// One random request against `catalog`: admits of fresh and served
/// destinations (exact resubmissions included), retires, and source
/// mutations that may or may not be valid.
MutationRequest DrawRequest(const Topology& topology,
                            const QueryCatalog& catalog, NodeId base,
                            Rng& rng) {
  const uint64_t kind = catalog.size() == 0 ? 0 : rng.UniformInt(6);
  switch (kind) {
    case 0: {
      const NodeId destination = DrawUnserved(topology, catalog, base, rng);
      const int width = 2 + static_cast<int>(rng.UniformInt(3));
      return MutationRequest::Admit(
          destination, SpecOver(DrawSources(topology, destination, width,
                                            rng)));
    }
    case 1: {
      const NodeId destination = DrawServed(catalog, rng);
      return MutationRequest::Admit(destination,
                                    catalog.Get(destination).spec);
    }
    case 2:
      return MutationRequest::Retire(DrawServed(catalog, rng));
    case 3: {
      const NodeId destination = DrawServed(catalog, rng);
      return MutationRequest::AddSource(
          destination, DrawSources(topology, destination, 1, rng)[0], 1.5);
    }
    case 4: {
      const QueryDefinition& query = catalog.Get(DrawServed(catalog, rng));
      const auto& weights = query.spec.weights;
      return MutationRequest::RemoveSource(
          query.destination,
          weights[rng.UniformInt(weights.size())].first);
    }
    default:
      // Unknown destination: a typed structural rejection.
      return MutationRequest::Retire(
          DrawUnserved(topology, catalog, base, rng));
  }
}

/// Runs `request` through the matching single-mutation call.
MutationResult CallSingleMutation(QueryLifecycleManager& manager,
                                  const MutationRequest& request) {
  switch (request.type) {
    case MutationType::kAdmit:
      return manager.AdmitQuery(request.destination, request.spec);
    case MutationType::kRetire:
      return manager.RetireQuery(request.destination);
    case MutationType::kAddSource:
      return manager.AddSource(request.destination, request.source,
                               request.weight);
    case MutationType::kRemoveSource:
      return manager.RemoveSource(request.destination, request.source);
  }
  M2M_CHECK(false) << "unreachable mutation type";
}

void CountSingle(const MutationResult& result, const MutationRequest& request,
                 GoldenStreamRun& run) {
  if (!result.decision.admitted) {
    run.budget_rejections += IsBudgetReason(result.decision.reason);
  } else if (result.deduplicated) {
    ++(request.type == MutationType::kAdmit ? run.dedup_acquires
                                            : run.dedup_releases);
  }
}

GoldenStreamRun RunGoldenStream(uint64_t seed) {
  const Topology topology = MakeGreatDuckIslandLike();
  const Workload initial = InitialWorkload(topology, seed * 7 + 1);
  const NodeId base = PickBaseStation(topology);
  Rng rng(seed);
  GoldenStreamRun run;

  // Tight limits: a few TDMA slots of headroom over the initial plan, so
  // single requests mostly fit and several large admissions at once do not.
  LifecycleOptions options;
  {
    QueryLifecycleManager probe(topology, initial, base);
    options.limits.max_tdma_slots =
        BuildTdmaSchedule(probe.compiled(), topology).slot_count + 4;
  }
  obs::MetricsRegistry metrics;
  QueryLifecycleManager manager(topology, initial, base, options);
  manager.set_metrics(&metrics);
  LifecycleDigest digest;
  digest.AddBatch(manager.ApplyBatch({}));

  for (int step = 0; step < 40; ++step) {
    const uint64_t op = rng.UniformInt(10);
    if (op < 5 || manager.catalog().size() == 0) {
      const MutationRequest request =
          DrawRequest(topology, manager.catalog(), base, rng);
      const MutationResult result = CallSingleMutation(manager, request);
      CountSingle(result, request, run);
      digest.Add(result);
    } else if (op == 5) {
      ChurnEvent event;
      const NodeId destination = DrawServed(manager.catalog(), rng);
      event.request = MutationRequest::AddSource(
          destination, DrawSources(topology, destination, 1, rng)[0], 0.75);
      digest.Add(ApplyChurnEvent(manager, event));
    } else {
      // A batch of 2-4 requests drawn against the evolving catalog view;
      // op 9 instead admits three wide fresh queries at once.
      std::vector<MutationRequest> requests;
      QueryCatalog view = manager.catalog();
      const int size = op == 9 ? 3 : 2 + static_cast<int>(rng.UniformInt(3));
      for (int i = 0; i < size; ++i) {
        MutationRequest request;
        if (op == 9) {
          const NodeId destination = DrawUnserved(topology, view, base, rng);
          request = MutationRequest::Admit(
              destination, SpecOver(DrawSources(topology, destination, 8,
                                                rng)));
        } else {
          request = DrawRequest(topology, view, base, rng);
        }
        if (request.type == MutationType::kAdmit &&
            !view.Contains(request.destination)) {
          QueryDefinition query;
          query.destination = request.destination;
          query.spec = request.spec;
          view.Admit(query);
        }
        requests.push_back(std::move(request));
      }
      const BatchResult batch = manager.ApplyBatch(requests);
      run.fallbacks += batch.sequential_fallback;
      for (const MutationOutcome& outcome : batch.outcomes) {
        run.budget_rejections += IsBudgetReason(outcome.decision.reason);
      }
      digest.AddBatch(batch);
    }
  }

  // Drain to the empty catalog — a two-request batch first, then single
  // retires of every remaining hold — and readmit from empty.
  if (manager.catalog().size() >= 2) {
    auto it = manager.catalog().queries().begin();
    const NodeId first = it->first;
    const NodeId second = std::next(it)->first;
    digest.AddBatch(manager.ApplyBatch(
        {MutationRequest::Retire(first), MutationRequest::Retire(second)}));
  }
  while (manager.catalog().size() > 0) {
    const MutationRequest request =
        MutationRequest::Retire(manager.catalog().queries().begin()->first);
    const MutationResult result = CallSingleMutation(manager, request);
    CountSingle(result, request, run);
    digest.Add(result);
  }
  run.drained = true;
  const NodeId readmit = DrawUnserved(topology, manager.catalog(), base, rng);
  digest.Add(manager.AdmitQuery(
      readmit, SpecOver(DrawSources(topology, readmit, 3, rng))));
  digest.Add(manager);
  digest.Add(metrics.ToJson());
  run.manager_digest = digest.value();

  // The frontend stream: default limits, so no budget ever trips and a
  // frontend single (a one-request batch) is never budget-rejected.
  obs::MetricsRegistry tenant_metrics;
  QueryLifecycleManager shared(topology, initial, base);
  shared.set_metrics(&tenant_metrics);
  MultiTenantFrontend frontend(&shared);
  frontend.set_metrics(&tenant_metrics);
  QosClass small;
  small.max_resident_queries = 3;
  small.max_sources_per_query = 3;
  frontend.RegisterTenant("alpha", small);
  frontend.RegisterTenant("beta");
  const std::string tenants[] = {"alpha", "beta", "ghost"};
  LifecycleDigest tenant_digest;
  auto count = [&run](const MutationOutcome& outcome) {
    const AdmissionReason reason = outcome.decision.reason;
    EXPECT_FALSE(IsBudgetReason(reason));
    if (reason == AdmissionReason::kTenantUnknown ||
        reason == AdmissionReason::kTenantQuota ||
        reason == AdmissionReason::kSharedQuery) {
      run.tenant_rejections.insert(reason);
    }
  };
  for (int step = 0; step < 30; ++step) {
    const std::string& tenant = tenants[rng.UniformInt(3)];
    const MutationRequest request =
        DrawRequest(topology, shared.catalog(), base, rng);
    if (rng.UniformInt(3) == 0) {
      std::vector<TenantRequest> requests = {{tenant, request}};
      const int extra = 1 + static_cast<int>(rng.UniformInt(3));
      for (int i = 0; i < extra; ++i) {
        requests.push_back({tenants[rng.UniformInt(3)],
                            DrawRequest(topology, shared.catalog(), base,
                                        rng)});
      }
      const FrontendBatchResult batch = frontend.ApplyBatch(requests);
      for (const MutationOutcome& outcome : batch.outcomes) count(outcome);
      tenant_digest.AddBatch(batch);
      tenant_digest.Add(static_cast<uint64_t>(batch.tenant_rejected));
      continue;
    }
    MutationResult result;
    switch (request.type) {
      case MutationType::kAdmit:
        result = frontend.AdmitQuery(tenant, request.destination,
                                     request.spec);
        break;
      case MutationType::kRetire:
        result = frontend.RetireQuery(tenant, request.destination);
        break;
      case MutationType::kAddSource:
        result = frontend.AddSource(tenant, request.destination,
                                    request.source, request.weight);
        break;
      case MutationType::kRemoveSource:
        result = frontend.RemoveSource(tenant, request.destination,
                                       request.source);
        break;
    }
    count(MutationOutcome{result.decision, result.deduplicated,
                          result.refcount});
    tenant_digest.Add(result);
  }
  // Every tenant releases every hold it has.
  for (const char* tenant : {"alpha", "beta"}) {
    for (NodeId destination = 0; destination < topology.node_count();
         ++destination) {
      while (frontend.Holds(tenant, destination) > 0) {
        tenant_digest.Add(frontend.RetireQuery(tenant, destination));
      }
    }
  }
  tenant_digest.Add(shared);
  tenant_digest.Add(tenant_metrics.ToJson());
  run.frontend_digest = tenant_digest.value();
  return run;
}

TEST(LifecycleGoldenTest, SeededRequestStreamsMatchGoldenDigests) {
  // {manager stream, frontend stream} per seed.
  constexpr uint64_t kGolden[4][2] = {
      {0xb417db57b655c3daULL, 0x72c26ca3c1e3251dULL},
      {0x7f672634ea70d175ULL, 0x936446083f92f8f0ULL},
      {0xbf71db9fc3316a6cULL, 0x408234214d665ea8ULL},
      {0xea9fef25ea71c110ULL, 0x839e78462916c34fULL},
  };
  GoldenStreamRun total;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const GoldenStreamRun run = RunGoldenStream(seed);
    EXPECT_EQ(HexDigest(run.manager_digest), HexDigest(kGolden[seed - 1][0]))
        << "seed " << seed;
    EXPECT_EQ(HexDigest(run.frontend_digest),
              HexDigest(kGolden[seed - 1][1]))
        << "seed " << seed;
    EXPECT_TRUE(run.drained);
    total.fallbacks += run.fallbacks;
    total.budget_rejections += run.budget_rejections;
    total.dedup_acquires += run.dedup_acquires;
    total.dedup_releases += run.dedup_releases;
    total.tenant_rejections.insert(run.tenant_rejections.begin(),
                                   run.tenant_rejections.end());
  }
  // The streams reach every path the digests are meant to pin.
  EXPECT_GT(total.fallbacks, 0);
  EXPECT_GT(total.budget_rejections, 0);
  EXPECT_GT(total.dedup_acquires, 0);
  EXPECT_GT(total.dedup_releases, 0);
  EXPECT_EQ(total.tenant_rejections.size(), 3u);
}

}  // namespace
}  // namespace m2m
