#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "plan/consistency.h"
#include "plan/planner.h"
#include "routing/backbone.h"
#include "routing/milestones.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "topology/generator.h"
#include "workload/workload.h"

namespace m2m {
namespace {

TEST(PathSystemTest, LineNetworkPaths) {
  std::vector<Point> positions;
  for (int i = 0; i < 5; ++i) positions.push_back({i * 10.0, 0.0});
  Topology line(std::move(positions), 10.0);
  PathSystem paths(line);
  EXPECT_EQ(paths.HopDistance(0, 4), 4);
  EXPECT_EQ(paths.HopDistance(2, 2), 0);
  EXPECT_EQ(paths.NextHop(0, 4), 1);
  EXPECT_EQ(paths.Path(1, 4), (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(paths.Eccentricity(0), 4);
  EXPECT_EQ(paths.Eccentricity(2), 2);
}

TEST(PathSystemTest, HopDistanceMatchesBfsOnGdi) {
  Topology gdi = MakeGreatDuckIslandLike();
  PathSystem paths(gdi);
  for (NodeId origin : {0, 17, 42}) {
    std::vector<int> bfs = gdi.HopDistancesFrom(origin);
    for (NodeId v = 0; v < gdi.node_count(); ++v) {
      EXPECT_EQ(paths.HopDistance(origin, v), bfs[v])
          << origin << " -> " << v;
    }
  }
}

TEST(PathSystemTest, PathsAreSymmetricInLength) {
  Topology gdi = MakeGreatDuckIslandLike();
  PathSystem paths(gdi);
  for (NodeId u = 0; u < gdi.node_count(); u += 7) {
    for (NodeId v = 0; v < gdi.node_count(); v += 5) {
      EXPECT_EQ(paths.HopDistance(u, v), paths.HopDistance(v, u));
    }
  }
}

TEST(PathSystemTest, PathEndpointsAndContiguity) {
  Topology gdi = MakeGreatDuckIslandLike();
  PathSystem paths(gdi);
  for (NodeId u = 0; u < gdi.node_count(); u += 11) {
    for (NodeId v = 0; v < gdi.node_count(); v += 13) {
      if (u == v) continue;
      std::vector<NodeId> path = paths.Path(u, v);
      ASSERT_GE(path.size(), 2u);
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_TRUE(gdi.AreNeighbors(path[i], path[i + 1]));
      }
      EXPECT_EQ(static_cast<int>(path.size()) - 1, paths.HopDistance(u, v));
    }
  }
}

// The crux of the routing layer: subpaths of canonical paths are canonical,
// which is what makes the multicast trees satisfy the paper's path-sharing
// restriction.
TEST(PathSystemTest, CanonicalPathsAreConsistent) {
  Topology gdi = MakeGreatDuckIslandLike();
  PathSystem paths(gdi);
  for (NodeId u = 0; u < gdi.node_count(); u += 9) {
    for (NodeId v = 0; v < gdi.node_count(); v += 7) {
      if (u == v) continue;
      EXPECT_TRUE(paths.PathIsConsistent(u, v)) << u << " -> " << v;
    }
  }
}

TEST(PathSystemTest, DifferentPerturbationSeedsStillShortest) {
  Topology gdi = MakeGreatDuckIslandLike();
  PathSystem a(gdi, 1);
  PathSystem b(gdi, 2);
  // Hop distances agree regardless of tie-breaking.
  for (NodeId u = 0; u < gdi.node_count(); u += 10) {
    for (NodeId v = 0; v < gdi.node_count(); v += 10) {
      EXPECT_EQ(a.HopDistance(u, v), b.HopDistance(u, v));
    }
  }
}

TEST(PathSystemTest, UnreachableAborts) {
  Topology split({{0.0, 0.0}, {100.0, 0.0}}, 10.0);
  PathSystem paths(split);
  EXPECT_DEATH(paths.HopDistance(0, 1), "unreachable");
  EXPECT_DEATH(paths.NextHop(0, 1), "unreachable");
}

// Fixing one endpoint, one column routes both ways: walking v's path toward
// root backwards gives exactly the hops of P(u, v) for every u on it, and
// never builds v's own column.
TEST(PathSystemTest, NextHopAlongMatchesNextHop) {
  Topology base_gdi = MakeGreatDuckIslandLike();
  // Isolate node 5 by masking every one of its links.
  constexpr NodeId kIsolated = 5;
  std::vector<std::pair<NodeId, NodeId>> cut;
  for (NodeId w : base_gdi.neighbors(kIsolated)) cut.emplace_back(kIsolated, w);
  std::vector<Topology> topologies = {
      base_gdi, MakeGreatDuckIslandLike(7), MakeGreatDuckIslandLike(11),
      Topology::WithFailures(base_gdi, cut, {})};
  for (size_t t = 0; t < topologies.size(); ++t) {
    const Topology& topology = topologies[t];
    const int n = topology.node_count();
    for (NodeId root : {0, n / 2}) {
      SCOPED_TRACE(::testing::Message() << "topology " << t << " root "
                                        << root);
      PathSystem along(topology);
      PathSystem reference(topology);
      std::vector<int> hops = topology.HopDistancesFrom(root);
      int unreachable = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (hops[v] < 0) {
          ++unreachable;
          EXPECT_EQ(along.NextHopAlong(root, root, v), kInvalidNode);
          EXPECT_EQ(along.NextHopAlong(root, v, v), kInvalidNode);
          continue;
        }
        std::vector<NodeId> path = along.Path(v, root);
        std::set<NodeId> on_path(path.begin(), path.end());
        for (size_t i = 1; i < path.size(); ++i) {
          EXPECT_EQ(along.NextHopAlong(root, path[i], v),
                    reference.NextHop(path[i], v))
              << path[i] << " -> " << v;
        }
        for (NodeId u = 0; u < n; ++u) {
          if (on_path.contains(u) && u != v) continue;
          EXPECT_EQ(along.NextHopAlong(root, u, v), kInvalidNode)
              << u << " is off the path " << v << " -> " << root;
        }
      }
      EXPECT_EQ(along.materialized_column_count(), 1);
      EXPECT_EQ(unreachable > 0, t + 1 == topologies.size());
    }
  }
}

// The default cost builds columns by a layered hop sweep; a custom cost
// that is constant 1.0 gives bit-identical link weights but takes the heap.
// Both must agree on every weight and next hop, unreachable nodes included.
TEST(PathSystemTest, LayeredColumnsMatchHeapColumns) {
  Topology gdi = MakeGreatDuckIslandLike();
  constexpr NodeId kIsolated = 5;
  std::vector<std::pair<NodeId, NodeId>> isolate;
  for (NodeId w : gdi.neighbors(kIsolated)) isolate.emplace_back(kIsolated, w);
  // Cut every link that crosses the vertical line through node 0.
  std::vector<std::pair<NodeId, NodeId>> split;
  const double mid = gdi.position(0).x;
  for (NodeId a = 0; a < gdi.node_count(); ++a) {
    for (NodeId b : gdi.neighbors(a)) {
      if (a < b && (gdi.position(a).x < mid) != (gdi.position(b).x < mid)) {
        split.emplace_back(a, b);
      }
    }
  }
  std::vector<Topology> topologies = {
      gdi,
      MakeUniformRandom(120, Area{160.0, 220.0}, kDefaultRadioRangeM, 3),
      MakeUniformRandom(120, Area{160.0, 220.0}, kDefaultRadioRangeM, 4),
      Topology::WithFailures(gdi, isolate, {}),
      Topology::WithFailures(gdi, split, {})};
  const PathSystem::LinkCostFn unit_cost = [](NodeId, NodeId) { return 1.0; };
  for (size_t k = 0; k < topologies.size(); ++k) {
    SCOPED_TRACE(::testing::Message() << "topology " << k);
    const Topology& topology = topologies[k];
    const int n = topology.node_count();
    PathSystem layered(topology);
    PathSystem heap(topology, 0x5eed, unit_cost);
    std::vector<NodeId> all(n);
    for (NodeId t = 0; t < n; ++t) all[t] = t;
    // Build every column up front, so PathWeight(u, t) reads t's column.
    layered.Materialize(all);
    heap.Materialize(all);
    int unreachable = 0;
    for (NodeId t = 0; t < n; ++t) {
      for (NodeId u = 0; u < n; ++u) {
        const int64_t weight = layered.PathWeight(u, t);
        ASSERT_EQ(weight, heap.PathWeight(u, t)) << u << " -> " << t;
        if (weight == std::numeric_limits<int64_t>::max()) {
          ++unreachable;
          continue;
        }
        if (u == t) continue;
        ASSERT_EQ(layered.NextHop(u, t), heap.NextHop(u, t))
            << u << " -> " << t;
      }
    }
    EXPECT_EQ(unreachable > 0, k + 2 >= topologies.size());
  }
}

// Four nodes on a square whose two 3 -> 0 paths weigh exactly the same
// under this perturbation seed. The heap keeps the parent it settles
// first — the smaller (weight, id) — and the layered sweep must match it
// in both directions.
TEST(PathSystemTest, ExactWeightTieKeepsFirstSettledParent) {
  Topology square({{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {10.0, 10.0}}, 12.0);
  constexpr uint64_t kTieSeed = 12476484;
  constexpr int64_t kTiedWeight = 2199061569548;
  PathSystem layered(square, kTieSeed);
  PathSystem heap(square, kTieSeed, [](NodeId, NodeId) { return 1.0; });
  ASSERT_FALSE(square.AreNeighbors(0, 3));
  ASSERT_EQ(layered.PathWeight(3, 1) + layered.PathWeight(1, 0), kTiedWeight);
  ASSERT_EQ(layered.PathWeight(3, 2) + layered.PathWeight(2, 0), kTiedWeight);
  for (const PathSystem* paths : {&layered, &heap}) {
    EXPECT_EQ(paths->PathWeight(3, 0), kTiedWeight);
    EXPECT_EQ(paths->NextHop(3, 0), 1);
    EXPECT_EQ(paths->NextHop(0, 3), 2);
  }
}

class MulticastForestTest : public ::testing::Test {
 protected:
  MulticastForestTest()
      : topology_(MakeGreatDuckIslandLike()), paths_(topology_) {}

  Topology topology_;
  PathSystem paths_;
};

TEST_F(MulticastForestTest, RoutesFollowCanonicalPaths) {
  std::vector<Task> tasks{{5, {12, 30, 47}}, {20, {12, 55}}};
  MulticastForest forest(paths_, tasks);
  for (const Task& task : tasks) {
    for (NodeId s : task.sources) {
      const std::vector<int>& route =
          forest.Route(SourceDestPair{s, task.destination});
      std::vector<NodeId> expected = paths_.Path(s, task.destination);
      // Stitch segments back into the physical path.
      std::vector<NodeId> actual;
      for (size_t i = 0; i < route.size(); ++i) {
        const ForestEdge& edge = forest.edges()[route[i]];
        size_t skip = (i == 0) ? 0 : 1;
        actual.insert(actual.end(), edge.segment.begin() + skip,
                      edge.segment.end());
      }
      EXPECT_EQ(actual, expected);
    }
  }
}

TEST_F(MulticastForestTest, SharedSourceUsesOneTree) {
  // Node 12 feeds two destinations; its tree must not duplicate prefix
  // edges.
  std::vector<Task> tasks{{5, {12}}, {20, {12}}};
  MulticastForest forest(paths_, tasks);
  const std::vector<int>& tree = forest.TreeEdges(12);
  std::set<int> unique(tree.begin(), tree.end());
  EXPECT_EQ(unique.size(), tree.size());
  // Tree size = number of distinct nodes across both routes.
  std::set<NodeId> nodes;
  for (int e : tree) {
    for (NodeId n : forest.edges()[e].segment) nodes.insert(n);
  }
  EXPECT_EQ(forest.MulticastTreeSize(12), static_cast<int>(nodes.size()));
}

TEST_F(MulticastForestTest, ChecksPassOnRandomWorkload) {
  std::vector<Task> tasks{
      {3, {10, 20, 30, 40}}, {15, {10, 25, 50}}, {60, {20, 30, 61}}};
  MulticastForest forest(paths_, tasks);
  EXPECT_TRUE(forest.CheckMinimality());
  EXPECT_TRUE(forest.CheckSharing());
  EXPECT_EQ(forest.destination_ids(), (std::vector<NodeId>{3, 15, 60}));
}

TEST_F(MulticastForestTest, PairsOnEdgesMatchRoutes) {
  std::vector<Task> tasks{{5, {12, 30}}, {20, {12}}};
  MulticastForest forest(paths_, tasks);
  for (const Task& task : tasks) {
    for (NodeId s : task.sources) {
      SourceDestPair pair{s, task.destination};
      for (int e : forest.Route(pair)) {
        const auto& pairs = forest.edges()[e].pairs;
        EXPECT_TRUE(std::binary_search(pairs.begin(), pairs.end(), pair));
      }
    }
  }
}

TEST_F(MulticastForestTest, SelfSourceHasEmptyRoute) {
  std::vector<Task> tasks{{5, {5, 12}}};
  MulticastForest forest(paths_, tasks);
  EXPECT_TRUE(forest.Route(SourceDestPair{5, 5}).empty());
  EXPECT_FALSE(forest.Route(SourceDestPair{12, 5}).empty());
}

TEST_F(MulticastForestTest, AggregationTreeCoversAllRoutes) {
  std::vector<Task> tasks{{5, {12, 30, 47}}};
  MulticastForest forest(paths_, tasks);
  std::set<NodeId> nodes{5};
  for (NodeId s : tasks[0].sources) {
    for (NodeId n : paths_.Path(s, 5)) nodes.insert(n);
  }
  EXPECT_EQ(forest.AggregationTreeSize(5), static_cast<int>(nodes.size()));
}

TEST_F(MulticastForestTest, DuplicateDestinationAborts) {
  std::vector<Task> tasks{{5, {12}}, {5, {30}}};
  EXPECT_DEATH(MulticastForest(paths_, tasks), "two tasks");
}

TEST_F(MulticastForestTest, DuplicateSourceAborts) {
  std::vector<Task> tasks{{5, {12, 12}}};
  EXPECT_DEATH(MulticastForest(paths_, tasks), "duplicate source");
}

TEST_F(MulticastForestTest, MilestoneForestUsesVirtualEdges) {
  MilestoneSelector none = MilestoneSelector::EndpointsOnly(
      topology_.node_count());
  std::vector<Task> tasks{{5, {47}}};
  MulticastForest forest(paths_, tasks, &none);
  ASSERT_EQ(forest.edges().size(), 1u);
  const ForestEdge& edge = forest.edges()[0];
  EXPECT_EQ(edge.edge.tail, 47);
  EXPECT_EQ(edge.edge.head, 5);
  EXPECT_EQ(edge.segment, paths_.Path(47, 5));
  EXPECT_EQ(edge.hop_length(), paths_.HopDistance(47, 5));
}

TEST_F(MulticastForestTest, AllMilestonesEqualsDefault) {
  MilestoneSelector all = MilestoneSelector::All(topology_.node_count());
  std::vector<Task> tasks{{5, {12, 30}}, {20, {12}}};
  MulticastForest with(paths_, tasks, &all);
  MulticastForest without(paths_, tasks);
  EXPECT_EQ(with.edges().size(), without.edges().size());
  EXPECT_EQ(with.TotalPhysicalHops(), without.TotalPhysicalHops());
}

// Field-by-field equality of an updated forest and a full build.
void ExpectSameForest(const MulticastForest& updated,
                      const MulticastForest& full, const std::string& step) {
  SCOPED_TRACE(step);
  ASSERT_EQ(updated.edges().size(), full.edges().size());
  for (size_t e = 0; e < full.edges().size(); ++e) {
    EXPECT_EQ(updated.edges()[e].edge, full.edges()[e].edge) << "edge " << e;
    EXPECT_EQ(updated.edges()[e].segment, full.edges()[e].segment)
        << "edge " << e;
    EXPECT_EQ(updated.edges()[e].pairs, full.edges()[e].pairs) << "edge " << e;
  }
  for (const Task& task : full.tasks()) {
    for (NodeId s : task.sources) {
      const SourceDestPair pair{s, task.destination};
      EXPECT_EQ(updated.Route(pair), full.Route(pair))
          << s << " -> " << task.destination;
    }
  }
  EXPECT_EQ(updated.source_ids(), full.source_ids());
  EXPECT_EQ(updated.destination_ids(), full.destination_ids());
  for (NodeId s : full.source_ids()) {
    EXPECT_EQ(updated.TreeEdges(s), full.TreeEdges(s)) << "source " << s;
  }
  for (const ForestEdge& edge : full.edges()) {
    EXPECT_EQ(updated.EdgeIndexOf(edge.edge), full.EdgeIndexOf(edge.edge));
  }
}

// Seeded task-list deltas for the forest differential. Each returns the
// next task list and names itself.
class TaskDeltas {
 public:
  TaskDeltas(int node_count, uint64_t seed)
      : node_count_(node_count), rng_(seed) {}

  NodeId RandomNode() {
    return static_cast<NodeId>(rng_.UniformInt(node_count_));
  }

  bool Serves(const std::vector<Task>& tasks, NodeId d) const {
    return std::any_of(tasks.begin(), tasks.end(),
                       [d](const Task& t) { return t.destination == d; });
  }

  NodeId UnservedNode(const std::vector<Task>& tasks, NodeId from) {
    for (NodeId n = from;; n = (n + 1) % node_count_) {
      if (!Serves(tasks, n)) return n;
    }
  }

  Task RandomTask(NodeId destination) {
    Task task{destination, {}};
    const int sources = 1 + static_cast<int>(rng_.UniformInt(8));
    while (static_cast<int>(task.sources.size()) < sources) {
      const NodeId s = RandomNode();
      if (s != destination &&
          std::find(task.sources.begin(), task.sources.end(), s) ==
              task.sources.end()) {
        task.sources.push_back(s);
      }
    }
    return task;
  }

  // One random admit / retire / add-source / remove-source / reorder.
  std::vector<Task> Random(std::vector<Task> tasks, std::string* name) {
    const uint64_t kind = tasks.empty() ? 0 : rng_.UniformInt(6);
    if (kind == 0) {
      *name = "admit";
      const Task task = RandomTask(UnservedNode(tasks, RandomNode()));
      tasks.insert(tasks.begin() + rng_.UniformInt(tasks.size() + 1), task);
    } else if (kind == 1) {
      *name = "retire";
      tasks.erase(tasks.begin() + rng_.UniformInt(tasks.size()));
    } else if (kind == 2 || kind == 3) {
      *name = "add source";
      Task& task = tasks[rng_.UniformInt(tasks.size())];
      // Now and then the destination starts reading its own sensor.
      NodeId s = rng_.Bernoulli(0.2) ? task.destination : RandomNode();
      if (std::find(task.sources.begin(), task.sources.end(), s) ==
          task.sources.end()) {
        task.sources.insert(
            task.sources.begin() + rng_.UniformInt(task.sources.size() + 1),
            s);
      }
    } else if (kind == 4) {
      *name = "remove source";
      Task& task = tasks[rng_.UniformInt(tasks.size())];
      if (task.sources.size() > 1) {
        task.sources.erase(task.sources.begin() +
                           rng_.UniformInt(task.sources.size()));
      }
    } else {
      *name = "reorder";
      rng_.Shuffle(tasks);
    }
    return tasks;
  }

 private:
  int node_count_;
  Rng rng_;
};

// Removes the pair that first encountered an edge shared by several pairs
// (the edge's full-build index then moves to its next pair's encounter).
std::vector<Task> WithoutFirstEncounterOfSharedEdge(
    const MulticastForest& forest) {
  std::vector<Task> tasks = forest.tasks();
  for (size_t t = 0; t < tasks.size(); ++t) {
    for (size_t i = 0; i < tasks[t].sources.size(); ++i) {
      const SourceDestPair pair{tasks[t].sources[i], tasks[t].destination};
      for (int e : forest.Route(pair)) {
        if (forest.edges()[e].pairs.size() < 2) continue;
        if (tasks[t].sources.size() > 1) {
          tasks[t].sources.erase(tasks[t].sources.begin() +
                                 static_cast<ptrdiff_t>(i));
        } else {
          tasks.erase(tasks.begin() + static_cast<ptrdiff_t>(t));
        }
        return tasks;
      }
    }
  }
  return tasks;
}

TEST_F(MulticastForestTest, UpdateMatchesFullBuild) {
  const std::vector<Topology> topologies =
      MakeScalingSeries({400, 1200, 2500}, 17);
  for (size_t k = 0; k < topologies.size(); ++k) {
    const Topology& topology = topologies[k];
    SCOPED_TRACE("topology " + std::to_string(topology.node_count()));
    const PathSystem paths(topology);
    TaskDeltas deltas(topology.node_count(), 100 + k);
    std::vector<Task> tasks;
    for (int i = 0; i < 6; ++i) {
      tasks.push_back(
          deltas.RandomTask(deltas.UnservedNode(tasks, deltas.RandomNode())));
    }
    auto forest = std::make_shared<const MulticastForest>(paths, tasks);
    int step = 0;
    // Applies one delta as an update of the current forest and compares
    // it with a full build of the same task list.
    auto apply = [&](std::vector<Task> next, const std::string& name) {
      auto updated =
          std::make_shared<const MulticastForest>(*forest, paths, next);
      const MulticastForest full(paths, next);
      ExpectSameForest(*updated, full,
                       "step " + std::to_string(step++) + ": " + name);
      forest = std::move(updated);
    };

    // A destination that sorts before every other one.
    std::vector<Task> next = forest->tasks();
    const NodeId first = deltas.UnservedNode(next, 0);
    ASSERT_LT(first, forest->destination_ids().front());
    next.insert(next.begin() + 1, deltas.RandomTask(first));
    apply(next, "admit a destination that sorts first");
    // A task whose only source is its own destination.
    next = forest->tasks();
    const NodeId self = deltas.UnservedNode(next, deltas.RandomNode());
    next.push_back(Task{self, {self}});
    apply(next, "admit a self-sourced task");
    apply(WithoutFirstEncounterOfSharedEdge(*forest),
          "remove the first encounter of a shared edge");
    for (int i = 0; i < 40; ++i) {
      std::string name;
      next = deltas.Random(forest->tasks(), &name);
      apply(next, name);
    }
    apply({}, "drain to empty");
    EXPECT_TRUE(forest->edges().empty());
    apply(tasks, "re-admit the initial tasks");
    // The update keeps the caller's task order: here not by destination.
    next = forest->tasks();
    std::reverse(next.begin(), next.end());
    apply(next, "reverse the task order");
  }
}

TEST_F(MulticastForestTest, RoutesOverNeedsTheSameRoutingAndNoMilestones) {
  const std::vector<Task> tasks{{5, {12, 30}}};
  const MulticastForest forest(paths_, tasks);
  const PathSystem copy(paths_);
  const PathSystem rebuilt(topology_);
  EXPECT_TRUE(forest.RoutesOver(paths_));
  EXPECT_TRUE(forest.RoutesOver(copy));
  EXPECT_FALSE(forest.RoutesOver(rebuilt));
  const MilestoneSelector all = MilestoneSelector::All(topology_.node_count());
  EXPECT_FALSE(MulticastForest(paths_, tasks, &all).RoutesOver(paths_));
}

TEST(LinkStabilityTest, ScoresInRangeAndDeterministic) {
  Topology gdi = MakeGreatDuckIslandLike();
  LinkStabilityModel a(gdi, 5);
  LinkStabilityModel b(gdi, 5);
  for (NodeId n = 0; n < gdi.node_count(); ++n) {
    for (NodeId m : gdi.neighbors(n)) {
      double s = a.stability(n, m);
      EXPECT_GE(s, 0.05);
      EXPECT_LE(s, 0.999);
      EXPECT_DOUBLE_EQ(s, a.stability(m, n));  // Symmetric.
      EXPECT_DOUBLE_EQ(s, b.stability(n, m));  // Deterministic.
    }
  }
}

TEST(LinkStabilityTest, CloserLinksTendMoreStable) {
  Topology gdi = MakeGreatDuckIslandLike();
  LinkStabilityModel model(gdi, 5);
  double close_total = 0.0;
  int close_count = 0;
  double far_total = 0.0;
  int far_count = 0;
  for (NodeId n = 0; n < gdi.node_count(); ++n) {
    for (NodeId m : gdi.neighbors(n)) {
      if (m < n) continue;
      double dist = Distance(gdi.position(n), gdi.position(m));
      if (dist < 20.0) {
        close_total += model.stability(n, m);
        ++close_count;
      } else if (dist > 40.0) {
        far_total += model.stability(n, m);
        ++far_count;
      }
    }
  }
  ASSERT_GT(close_count, 0);
  ASSERT_GT(far_count, 0);
  EXPECT_GT(close_total / close_count, far_total / far_count);
}

TEST(StabilityAwareRoutingTest, AvoidsExpensiveLink) {
  // Two routes from 0 to 2: direct via 1 (2 hops) or around via 3, 4
  // (3 hops). With the 0-1 link made costly, routing detours.
  std::vector<Point> positions = {{0, 0},   {40, 0},  {80, 0},
                                  {10, 42}, {55, 40}};
  Topology topo(std::move(positions), 48.0);
  ASSERT_TRUE(topo.AreNeighbors(0, 1));
  ASSERT_TRUE(topo.AreNeighbors(0, 3));
  ASSERT_TRUE(topo.AreNeighbors(3, 4));
  ASSERT_TRUE(topo.AreNeighbors(4, 2));

  PathSystem plain(topo);
  EXPECT_EQ(plain.Path(0, 2), (std::vector<NodeId>{0, 1, 2}));

  PathSystem::LinkCostFn costly_01 = [](NodeId a, NodeId b) {
    return ((a == 0 && b == 1) || (a == 1 && b == 0)) ? 4.0 : 1.0;
  };
  PathSystem biased(topo, 0x5eed, costly_01);
  EXPECT_EQ(biased.Path(0, 2), (std::vector<NodeId>{0, 3, 4, 2}));
  // Consistency still holds with custom costs.
  EXPECT_TRUE(biased.PathIsConsistent(0, 2));
}

TEST(StabilityAwareRoutingTest, CostFormula) {
  Topology gdi = MakeGreatDuckIslandLike();
  LinkStabilityModel model(gdi, 5);
  PathSystem::LinkCostFn cost = StabilityAwareLinkCost(model, 2.0);
  NodeId a = 0;
  NodeId b = gdi.neighbors(0).front();
  EXPECT_DOUBLE_EQ(cost(a, b), 1.0 + 2.0 * (1.0 - model.stability(a, b)));
  PathSystem::LinkCostFn zero = StabilityAwareLinkCost(model, 0.0);
  EXPECT_DOUBLE_EQ(zero(a, b), 1.0);
}

TEST(StabilityAwareRoutingTest, HigherPenaltyRaisesRouteStability) {
  Topology gdi = MakeGreatDuckIslandLike();
  LinkStabilityModel model(gdi, 5);
  auto mean_route_stability = [&](double penalty) {
    PathSystem paths(gdi, 0x5eed,
                     penalty == 0.0
                         ? PathSystem::LinkCostFn(nullptr)
                         : StabilityAwareLinkCost(model, penalty));
    double total = 0.0;
    int links = 0;
    for (NodeId u = 0; u < gdi.node_count(); u += 5) {
      for (NodeId v = 2; v < gdi.node_count(); v += 7) {
        if (u == v) continue;
        std::vector<NodeId> path = paths.Path(u, v);
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          total += model.stability(path[i], path[i + 1]);
          ++links;
        }
      }
    }
    return total / links;
  };
  EXPECT_GT(mean_route_stability(4.0), mean_route_stability(0.0));
}

TEST(BackboneTest, CenterNodeMinimizesTotalDistance) {
  Topology gdi = MakeGreatDuckIslandLike();
  NodeId center = PickCenterNode(gdi);
  auto total_distance = [&](NodeId n) {
    int64_t total = 0;
    for (int d : gdi.HopDistancesFrom(n)) total += d;
    return total;
  };
  int64_t center_total = total_distance(center);
  for (NodeId n = 0; n < gdi.node_count(); n += 3) {
    EXPECT_LE(center_total, total_distance(n));
  }
}

TEST(BackboneTest, CostDiscriminatesBackboneLinks) {
  Topology gdi = MakeGreatDuckIslandLike();
  NodeId center = PickCenterNode(gdi);
  PathSystem::LinkCostFn cost = BackboneBiasedCost(gdi, center, 1.6);
  int cheap = 0;
  int expensive = 0;
  for (NodeId a = 0; a < gdi.node_count(); ++a) {
    for (NodeId b : gdi.neighbors(a)) {
      if (b < a) continue;
      double c = cost(a, b);
      if (c == 1.0) ++cheap;
      if (c == 1.6) ++expensive;
      EXPECT_TRUE(c == 1.0 || c == 1.6);
      EXPECT_DOUBLE_EQ(c, cost(b, a));
    }
  }
  // A spanning tree has n-1 links; the rest carry the penalty.
  EXPECT_EQ(cheap, gdi.node_count() - 1);
  EXPECT_EQ(expensive, gdi.link_count() - (gdi.node_count() - 1));
}

TEST(BackboneTest, BiasedRoutingShrinksDispersedForests) {
  Topology gdi = MakeGreatDuckIslandLike();
  NodeId center = PickCenterNode(gdi);
  WorkloadSpec spec;
  spec.destination_count = 13;
  spec.sources_per_destination = 20;
  spec.dispersion = 1.0;
  spec.seed = 1002;
  Workload wl = GenerateWorkload(gdi, spec);
  PathSystem plain(gdi);
  PathSystem biased(gdi, 0x5eed, BackboneBiasedCost(gdi, center, 1.6));
  MulticastForest plain_forest(plain, wl.tasks);
  MulticastForest biased_forest(biased, wl.tasks);
  // Funneling onto the backbone shares more edges across trees.
  EXPECT_LT(biased_forest.edges().size(), plain_forest.edges().size());
  // And the whole pipeline still verifies on the biased routes.
  auto forest = std::make_shared<const MulticastForest>(biased, wl.tasks);
  GlobalPlan plan = BuildPlan(forest, wl.functions, {});
  EXPECT_TRUE(ValidatePlanConsistency(plan));
}

TEST(MilestoneSelectorTest, ThresholdExtremes) {
  Topology gdi = MakeGreatDuckIslandLike();
  LinkStabilityModel model(gdi, 5);
  MilestoneSelector all =
      MilestoneSelector::StabilityThreshold(gdi, model, 0.0);
  EXPECT_EQ(all.milestone_count(), gdi.node_count());
  MilestoneSelector none =
      MilestoneSelector::StabilityThreshold(gdi, model, 1.1);
  EXPECT_EQ(none.milestone_count(), 0);
  MilestoneSelector some =
      MilestoneSelector::StabilityThreshold(gdi, model, 0.85);
  EXPECT_GT(some.milestone_count(), 0);
  EXPECT_LT(some.milestone_count(), gdi.node_count());
}

}  // namespace
}  // namespace m2m
