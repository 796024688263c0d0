#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "plan/messaging.h"
#include "plan/planner.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

struct Env {
  explicit Env(uint64_t seed, PlanStrategy strategy = PlanStrategy::kOptimal)
      : topology(MakeGreatDuckIslandLike()), paths(topology) {
    WorkloadSpec spec;
    spec.destination_count = 10;
    spec.sources_per_destination = 8;
    spec.seed = seed;
    workload = GenerateWorkload(topology, spec);
    forest = std::make_shared<MulticastForest>(paths, workload.tasks);
    PlannerOptions options;
    options.strategy = strategy;
    plan = std::make_shared<GlobalPlan>(
        BuildPlan(forest, workload.functions, options));
  }

  Topology topology;
  PathSystem paths;
  Workload workload;
  std::shared_ptr<const MulticastForest> forest;
  std::shared_ptr<GlobalPlan> plan;
};

TEST(MessagingTest, UnitCountsMatchPlan) {
  Env env(31);
  MessageSchedule schedule = MessageSchedule::Build(
      *env.plan, env.workload.functions, MergePolicy::kGreedyMergePerEdge);
  EXPECT_EQ(static_cast<int64_t>(schedule.units().size()),
            env.plan->TotalUnits());
  // Units per edge match each edge plan.
  for (size_t e = 0; e < env.forest->edges().size(); ++e) {
    const EdgePlan& p = env.plan->plan_for(static_cast<int>(e));
    EXPECT_EQ(schedule.units_on_edge(static_cast<int>(e)).size(),
              static_cast<size_t>(p.unit_count()));
  }
}

// Theorem 2: no wait-for cycles among message units in the optimal plan.
TEST(MessagingTest, WaitForGraphIsAcyclic) {
  for (uint64_t seed : {31u, 32u, 33u}) {
    Env env(seed);
    MessageSchedule schedule = MessageSchedule::Build(
        *env.plan, env.workload.functions, MergePolicy::kGreedyMergePerEdge);
    EXPECT_TRUE(schedule.UnitsAcyclic());
    std::vector<int> order = schedule.TopologicalUnitOrder();
    EXPECT_EQ(order.size(), schedule.units().size());
    // Verify topological property.
    std::vector<int> position(order.size());
    for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
    for (size_t v = 0; v < schedule.units().size(); ++v) {
      for (int u : schedule.wait_for(static_cast<int>(v))) {
        EXPECT_LT(position[u], position[v]);
      }
    }
  }
}

// The paper's experimental observation: greedy merging collapses all units
// on each edge into a single message.
TEST(MessagingTest, GreedyMergeYieldsOneMessagePerEdge) {
  Env env(34);
  MessageSchedule schedule = MessageSchedule::Build(
      *env.plan, env.workload.functions, MergePolicy::kGreedyMergePerEdge);
  std::set<int> edges_with_units;
  for (const MessageUnit& unit : schedule.units()) {
    edges_with_units.insert(unit.edge_index);
  }
  EXPECT_EQ(schedule.messages().size(), edges_with_units.size());
  for (const MessageSchedule::Message& message : schedule.messages()) {
    EXPECT_EQ(message.unit_ids.size(),
              schedule.units_on_edge(message.edge_index).size());
  }
  EXPECT_TRUE(schedule.MessagesAcyclic());
}

TEST(MessagingTest, OneUnitPerMessagePolicy) {
  Env env(35);
  MessageSchedule schedule = MessageSchedule::Build(
      *env.plan, env.workload.functions, MergePolicy::kOneUnitPerMessage);
  EXPECT_EQ(schedule.messages().size(), schedule.units().size());
  for (const MessageSchedule::Message& message : schedule.messages()) {
    EXPECT_EQ(message.unit_ids.size(), 1u);
  }
  EXPECT_TRUE(schedule.MessagesAcyclic());
}

TEST(MessagingTest, MergedScheduleHasFewerMessages) {
  Env env(36);
  MessageSchedule merged = MessageSchedule::Build(
      *env.plan, env.workload.functions, MergePolicy::kGreedyMergePerEdge);
  MessageSchedule unmerged = MessageSchedule::Build(
      *env.plan, env.workload.functions, MergePolicy::kOneUnitPerMessage);
  EXPECT_LE(merged.message_count(), unmerged.message_count());
  EXPECT_GT(unmerged.message_count(), 0);
}

TEST(MessagingTest, UnitBytesReflectFunctionRecordSizes) {
  Env env(37);
  MessageSchedule schedule = MessageSchedule::Build(
      *env.plan, env.workload.functions, MergePolicy::kGreedyMergePerEdge);
  for (const MessageUnit& unit : schedule.units()) {
    if (unit.is_partial) {
      EXPECT_EQ(unit.unit_bytes,
                kIdTagBytes + env.workload.functions.Get(unit.subject)
                                  .partial_record_bytes());
    } else {
      EXPECT_EQ(unit.unit_bytes, kRawUnitBytes);
    }
  }
}

TEST(MessagingTest, RawUnitsWaitOnlyForUpstreamRawOfSameSource) {
  Env env(38, PlanStrategy::kMulticastOnly);
  MessageSchedule schedule = MessageSchedule::Build(
      *env.plan, env.workload.functions, MergePolicy::kGreedyMergePerEdge);
  for (size_t v = 0; v < schedule.units().size(); ++v) {
    const MessageUnit& unit = schedule.units()[v];
    ASSERT_FALSE(unit.is_partial);
    for (int u : schedule.wait_for(static_cast<int>(v))) {
      EXPECT_FALSE(schedule.units()[u].is_partial);
      EXPECT_EQ(schedule.units()[u].subject, unit.subject);
    }
  }
}

TEST(MessagingTest, AggregationOnlyUnitsWaitForSameDestination) {
  Env env(39, PlanStrategy::kAggregationOnly);
  MessageSchedule schedule = MessageSchedule::Build(
      *env.plan, env.workload.functions, MergePolicy::kGreedyMergePerEdge);
  for (size_t v = 0; v < schedule.units().size(); ++v) {
    const MessageUnit& unit = schedule.units()[v];
    ASSERT_TRUE(unit.is_partial);
    for (int u : schedule.wait_for(static_cast<int>(v))) {
      EXPECT_EQ(schedule.units()[u].subject, unit.subject);
    }
  }
}

}  // namespace
}  // namespace m2m
