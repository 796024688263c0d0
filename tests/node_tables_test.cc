#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "compile_digest.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

struct Env {
  explicit Env(uint64_t seed, PlanStrategy strategy = PlanStrategy::kOptimal)
      : topology(MakeGreatDuckIslandLike()), paths(topology) {
    WorkloadSpec spec;
    spec.destination_count = 12;
    spec.sources_per_destination = 10;
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

TEST(NodeTablesTest, EveryDestinationGetsEvaluatorAndLocalEntry) {
  Env env(51);
  CompiledPlan compiled =
      CompiledPlan::Compile(*env.plan, env.workload.functions);
  for (const Task& task : env.forest->tasks()) {
    const NodeStateView state = compiled.state(task.destination);
    EXPECT_TRUE(state.is_destination);
    bool has_local_partial = false;
    for (const PartialTableEntry& entry : state.partial_table) {
      if (entry.destination == task.destination && entry.message_id == -1) {
        has_local_partial = true;
        EXPECT_GT(entry.expected_contributions, 0);
      }
    }
    EXPECT_TRUE(has_local_partial);
  }
}

TEST(NodeTablesTest, RawEntriesMatchEdgePlans) {
  Env env(52);
  CompiledPlan compiled =
      CompiledPlan::Compile(*env.plan, env.workload.functions);
  // One raw entry per (tail, source, outgoing message): a raw value fanning
  // out to k outgoing edges (one message each under greedy merging) needs k
  // entries.
  std::map<std::pair<NodeId, NodeId>, int> expected;  // (tail, s) -> count
  for (size_t e = 0; e < env.forest->edges().size(); ++e) {
    NodeId tail = env.forest->edges()[e].edge.tail;
    for (NodeId s : env.plan->plan_for(static_cast<int>(e)).raw_sources) {
      expected[{tail, s}] += 1;
    }
  }
  std::map<std::pair<NodeId, NodeId>, int> actual;
  std::set<std::pair<NodeId, int>> seen_messages;
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    std::set<std::pair<NodeId, int>> node_entries;
    for (const RawTableEntry& entry : compiled.state(n).raw_table) {
      actual[{n, entry.source}] += 1;
      EXPECT_GE(entry.message_id, 0);
      EXPECT_TRUE(node_entries.insert({entry.source, entry.message_id})
                      .second)
          << "duplicate (source, message) raw entry at node " << n;
    }
  }
  EXPECT_EQ(actual, expected);
}

TEST(NodeTablesTest, PartialEntriesMatchEdgePlans) {
  Env env(53);
  CompiledPlan compiled =
      CompiledPlan::Compile(*env.plan, env.workload.functions);
  int64_t edge_partials = 0;
  for (const EdgePlan& p : env.plan->edge_plans()) {
    edge_partials += static_cast<int64_t>(p.agg_destinations.size());
  }
  StateTotals totals = compiled.ComputeStateTotals();
  // Edge-level partial entries plus one local entry per destination.
  EXPECT_EQ(totals.partial_entries,
            edge_partials +
                static_cast<int64_t>(env.forest->tasks().size()));
  EXPECT_EQ(totals.evaluator_entries,
            static_cast<int64_t>(env.forest->tasks().size()));
}

TEST(NodeTablesTest, OutgoingTableCoversAllMessages) {
  Env env(54);
  CompiledPlan compiled =
      CompiledPlan::Compile(*env.plan, env.workload.functions);
  int64_t outgoing = 0;
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    for (const OutgoingMessageEntry& entry :
         compiled.state(n).outgoing_table) {
      ++outgoing;
      EXPECT_GT(entry.unit_count, 0);
      EXPECT_GE(entry.recipient, 0);
      ASSERT_GE(entry.segment.size(), 2u);
      EXPECT_EQ(entry.segment.front(), n);
      EXPECT_EQ(entry.segment.back(), entry.recipient);
    }
  }
  EXPECT_EQ(outgoing, compiled.schedule().message_count());
}

TEST(NodeTablesTest, PreAggEntriesOnlyWhereRawMeetsAggregation) {
  Env env(55, PlanStrategy::kMulticastOnly);
  CompiledPlan compiled =
      CompiledPlan::Compile(*env.plan, env.workload.functions);
  // Pure multicast: pre-aggregation happens only at destinations.
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    for (const PreAggTableEntry& entry : compiled.state(n).preagg_table) {
      EXPECT_EQ(entry.destination, n)
          << "multicast plan pre-aggregates at non-destination " << n;
    }
  }
}

TEST(NodeTablesTest, AggregationOnlyPreAggregatesAtFirstEdge) {
  Env env(56, PlanStrategy::kAggregationOnly);
  CompiledPlan compiled =
      CompiledPlan::Compile(*env.plan, env.workload.functions);
  // Pure aggregation: every source pre-aggregates its own reading (at the
  // source node) for every remote destination.
  for (const Task& task : env.forest->tasks()) {
    for (NodeId s : task.sources) {
      if (s == task.destination) continue;
      bool found = false;
      for (const PreAggTableEntry& entry : compiled.state(s).preagg_table) {
        if (entry.source == s && entry.destination == task.destination) {
          found = true;
        }
      }
      EXPECT_TRUE(found) << "source " << s << " destination "
                         << task.destination;
    }
  }
}

// Theorem 3: the state of the optimal plan is within a constant factor of
// min(sum |T_s|, sum |A_d|).
TEST(NodeTablesTest, StateWithinTheoremThreeBound) {
  for (uint64_t seed : {61u, 62u, 63u}) {
    Env env(seed);
    CompiledPlan compiled =
        CompiledPlan::Compile(*env.plan, env.workload.functions);
    StateTotals totals = compiled.ComputeStateTotals();
    int64_t bound = std::min(totals.sum_multicast_tree_sizes,
                             totals.sum_aggregation_tree_sizes);
    ASSERT_GT(bound, 0);
    // Constant factor: generous 6x (entries per tree node are bounded by a
    // small constant in the paper's accounting).
    EXPECT_LE(totals.total(), 6 * bound) << "seed " << seed;
  }
}

TEST(NodeTablesTest, ExpectedContributionsArePositiveAndBounded) {
  Env env(57);
  CompiledPlan compiled =
      CompiledPlan::Compile(*env.plan, env.workload.functions);
  for (NodeId n = 0; n < compiled.node_count(); ++n) {
    for (const PartialTableEntry& entry : compiled.state(n).partial_table) {
      EXPECT_GT(entry.expected_contributions, 0);
      // Never more contributions than the destination has sources.
      bool found = false;
      for (const Task& task : env.forest->tasks()) {
        if (task.destination == entry.destination) {
          EXPECT_LE(entry.expected_contributions,
                    static_cast<int>(task.sources.size()));
          found = true;
        }
      }
      EXPECT_TRUE(found);
    }
  }
}

// Golden digests of the compile output (message schedule, node images and
// state totals) over 20 seeds, per strategy and merge policy. Any change to
// MessageSchedule::Build or CompiledPlan::Compile must leave them as they are.
TEST(NodeTablesTest, CompileGoldenDigests) {
  const PlanStrategy strategies[] = {PlanStrategy::kOptimal,
                                     PlanStrategy::kMulticastOnly,
                                     PlanStrategy::kAggregationOnly};
  const MergePolicy policies[] = {MergePolicy::kGreedyMergePerEdge,
                                  MergePolicy::kOneUnitPerMessage};
  // expected[strategy][policy], as CompileDigests::ToString prints it.
  const char* expected[3][2] = {
      {"5d74ad6ec0c7fb80/d30bc5f36b353378/fe3a701e9a7530e9",
       "7a74f539bd9232b0/35ba18cd5e39ed44/271067937b2733bb"},
      {"032d364b593bef9a/aeb992a1125dc0be/a0e5445ac2efff12",
       "15b3a73a44943f3a/a83dd097c893cb12/e7cbf13cad75c0a1"},
      {"cfdb0b6baf5a4998/730c4a04c030e55d/c6e08838ba457c10",
       "a67f3eaca481bbca/2af4f180c6599ad7/3fec561024958149"},
  };
  CompileDigests digests[3][2];
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (int s = 0; s < 3; ++s) {
      Env env(seed, strategies[s]);
      for (int p = 0; p < 2; ++p) {
        digests[s][p].Add(CompiledPlan::Compile(*env.plan,
                                                env.workload.functions,
                                                policies[p]),
                          env.workload.functions);
      }
    }
  }
  for (int s = 0; s < 3; ++s) {
    for (int p = 0; p < 2; ++p) {
      EXPECT_EQ(digests[s][p].ToString(), expected[s][p])
          << ToString(strategies[s]) << ", merge policy " << p;
    }
  }
}

// Compiled and decoded tables both use node-local message ids, so a node's
// image decodes to exactly its compiled tables.
TEST(NodeTablesTest, CompiledTablesEqualDecodedImages) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Env env(seed);
    for (MergePolicy policy : {MergePolicy::kGreedyMergePerEdge,
                               MergePolicy::kOneUnitPerMessage}) {
      EXPECT_EQ(CompiledDecodedDifference(
                    CompiledPlan::Compile(*env.plan, env.workload.functions,
                                          policy, /*plan_epoch=*/seed),
                    env.workload.functions),
                "")
          << "seed " << seed << ", merge policy "
          << static_cast<int>(policy);
    }
  }
}

}  // namespace
}  // namespace m2m
