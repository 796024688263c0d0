#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compile_digest.h"
#include "topology/generator.h"
#include "topology/topology.h"

namespace m2m {
namespace {

Topology MakeLine(int n, double spacing, double range) {
  std::vector<Point> positions;
  for (int i = 0; i < n; ++i) positions.push_back({i * spacing, 0.0});
  return Topology(std::move(positions), range);
}

TEST(TopologyTest, LineAdjacency) {
  Topology line = MakeLine(5, 10.0, 10.0);
  EXPECT_EQ(line.node_count(), 5);
  EXPECT_EQ(line.link_count(), 4);
  EXPECT_TRUE(line.AreNeighbors(0, 1));
  EXPECT_FALSE(line.AreNeighbors(0, 2));
  EXPECT_TRUE(
      std::ranges::equal(line.neighbors(2), std::vector<NodeId>{1, 3}));
}

TEST(TopologyTest, RangeBoundaryIsInclusive) {
  Topology pair({{0.0, 0.0}, {50.0, 0.0}}, 50.0);
  EXPECT_TRUE(pair.AreNeighbors(0, 1));
  Topology apart({{0.0, 0.0}, {50.001, 0.0}}, 50.0);
  EXPECT_FALSE(apart.AreNeighbors(0, 1));
}

TEST(TopologyTest, HopDistancesOnLine) {
  Topology line = MakeLine(6, 10.0, 10.0);
  std::vector<int> dist = line.HopDistancesFrom(0);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(dist[i], i);
  EXPECT_EQ(line.NodesAtHopDistance(0, 3), (std::vector<NodeId>{3}));
}

TEST(TopologyTest, DisconnectedGraphDetected) {
  Topology split({{0.0, 0.0}, {5.0, 0.0}, {100.0, 0.0}}, 10.0);
  EXPECT_FALSE(split.IsConnected());
  std::vector<int> dist = split.HopDistancesFrom(0);
  EXPECT_EQ(dist[2], -1);
}

TEST(TopologyTest, AverageDegreeOnGrid) {
  // 3x3 grid, spacing 10, range 10: inner node has 4 neighbors.
  Topology grid = MakeGrid(3, 3, 10.0, 10.0);
  EXPECT_EQ(grid.node_count(), 9);
  EXPECT_EQ(grid.link_count(), 12);
  EXPECT_DOUBLE_EQ(grid.average_degree(), 24.0 / 9.0);
  EXPECT_EQ(grid.neighbors(4).size(), 4u);  // Center of the grid.
}

TEST(TopologyTest, GridWithDiagonalRange) {
  // Range covering diagonals adds 4 links per cell.
  Topology grid = MakeGrid(3, 3, 10.0, 15.0);
  EXPECT_EQ(grid.neighbors(4).size(), 8u);
}

TEST(GeneratorTest, GreatDuckIslandLikeMatchesPaperSetup) {
  Topology gdi = MakeGreatDuckIslandLike();
  EXPECT_EQ(gdi.node_count(), 68);
  EXPECT_DOUBLE_EQ(gdi.radio_range_m(), 50.0);
  EXPECT_TRUE(gdi.IsConnected());
  for (NodeId n = 0; n < gdi.node_count(); ++n) {
    const Point& p = gdi.position(n);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 106.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 203.0);
  }
  // Dense enough for the paper's 20-sources-per-destination workloads.
  EXPECT_GT(gdi.average_degree(), 8.0);
}

TEST(GeneratorTest, GreatDuckIslandLikeIsDeterministic) {
  Topology a = MakeGreatDuckIslandLike(11);
  Topology b = MakeGreatDuckIslandLike(11);
  EXPECT_EQ(a.positions(), b.positions());
  Topology c = MakeGreatDuckIslandLike(12);
  EXPECT_NE(a.positions(), c.positions());
}

TEST(GeneratorTest, UniformRandomIsConnectedAndInBounds) {
  Area area{200.0, 200.0};
  Topology topo = MakeUniformRandom(60, area, 50.0, 99);
  EXPECT_EQ(topo.node_count(), 60);
  EXPECT_TRUE(topo.IsConnected());
}

TEST(GeneratorTest, ClusteredIsConnected) {
  Topology topo =
      MakeClustered(50, 4, Area{300.0, 300.0}, 20.0, 50.0, 123);
  EXPECT_EQ(topo.node_count(), 50);
  EXPECT_TRUE(topo.IsConnected());
}

TEST(GeneratorTest, ScalingSeriesKeepsDensity) {
  std::vector<Topology> series = MakeScalingSeries({50, 100, 150}, 7);
  ASSERT_EQ(series.size(), 3u);
  for (const Topology& t : series) {
    EXPECT_TRUE(t.IsConnected());
  }
  EXPECT_EQ(series[0].node_count(), 50);
  EXPECT_EQ(series[2].node_count(), 150);
  // Density held roughly constant => average degree within a factor ~2.
  double d0 = series[0].average_degree();
  double d2 = series[2].average_degree();
  EXPECT_LT(std::max(d0, d2) / std::min(d0, d2), 2.5);
}

// FNV-1a over a topology's radio range, positions (bit patterns) and sorted
// adjacency: pins the generators and the neighbor search bit for bit.
std::string TopologyDigest(const Topology& topology) {
  Fnv1a64 digest;
  digest.Add(std::bit_cast<uint64_t>(topology.radio_range_m()));
  digest.Add(static_cast<uint64_t>(topology.node_count()));
  for (const Point& p : topology.positions()) {
    digest.Add(std::bit_cast<uint64_t>(p.x));
    digest.Add(std::bit_cast<uint64_t>(p.y));
  }
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    digest.Add(topology.neighbors(n).size());
    for (NodeId v : topology.neighbors(n)) digest.Add(static_cast<uint64_t>(v));
  }
  return HexDigest(digest.value());
}

// The positions MakeUniformRandom draws before connectivity repair.
std::vector<Point> UniformDraws(int count, Area area, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> positions;
  for (int i = 0; i < count; ++i) {
    positions.push_back(Point{rng.UniformDouble(0.0, area.width),
                              rng.UniformDouble(0.0, area.height)});
  }
  return positions;
}

// Generated at the commit before the topology layer took over the cell
// index, the component labeler and the failure mask; every later change to
// the neighbor search or the connectivity repair must keep these bits.
TEST(TopologyGoldenTest, GeneratorsMatchGoldenDigests) {
  std::vector<std::string> digests;
  auto add = [&](const Topology& t) { digests.push_back(TopologyDigest(t)); };
  for (uint64_t seed : {2003u, 1u, 7u, 11u, 42u}) {
    add(MakeGreatDuckIslandLike(seed));
  }
  add(MakeUniformRandom(60, {200.0, 200.0}, 50.0, 99));
  // Sparse enough that repair moves many nodes; the second one starts with
  // every node isolated, so each early repair pass ties on the largest
  // component and the first-largest rule decides the anchor.
  add(MakeUniformRandom(80, {500.0, 500.0}, 50.0, 5));
  add(MakeUniformRandom(30, {2000.0, 2000.0}, 50.0, 3));
  add(MakeClustered(50, 4, {300.0, 300.0}, 20.0, 50.0, 123));
  add(MakeClustered(120, 6, {800.0, 800.0}, 25.0, 50.0, 9));
  add(MakeGrid(10, 7, 30.0, 50.0));
  for (const Topology& t : MakeScalingSeries({1000, 10000}, 1)) add(t);
  const std::vector<std::string> golden = {
      "e8cb0c6704f16a47",
      "1a828f7627e76b79",
      "89c2717d46530679",
      "e83ba684cb56ea92",
      "6aae0e089905194d",
      "fa46d6f20f340556",
      "830dec11ca1897bd",
      "34e3284d13fd2e68",
      "f9540ed2efb4a41c",
      "5aabfa8a351ae4d8",
      "d3fd3c26ca333823",
      "f9ce63c6607d10c1",
      "85761ff5121d80fa",
  };
  EXPECT_EQ(digests, golden);
}

TEST(TopologyGoldenTest, SparseCasesExerciseRepair) {
  // The sparse golden cases above really move nodes (more than one repair
  // pass), so the golden pins the repair path and not only the draws.
  for (auto [count, side, seed] : {std::tuple{80, 500.0, uint64_t{5}},
                                   std::tuple{30, 2000.0, uint64_t{3}}}) {
    const Area area{side, side};
    EXPECT_NE(MakeUniformRandom(count, area, 50.0, seed).positions(),
              UniformDraws(count, area, seed));
  }
}

// Random deployments checked against the all-pairs definition of the disk
// graph: a dense one, a sparse one whose cell grid is coarsened, and one
// with many coincident positions.
TEST(TopologyTest, AdjacencyMatchesAllPairs) {
  Rng rng(77);
  std::vector<std::vector<Point>> deployments;
  deployments.push_back(UniformDraws(300, {250.0, 250.0}, 1));
  deployments.push_back(UniformDraws(40, {5000.0, 3000.0}, 2));
  std::vector<Point> stacked;
  for (int i = 0; i < 120; ++i) {
    stacked.push_back(Point{static_cast<double>(rng.UniformInt(5) * 30),
                            static_cast<double>(rng.UniformInt(5) * 30)});
  }
  deployments.push_back(stacked);
  for (const std::vector<Point>& positions : deployments) {
    const double range = 50.0;
    Topology topology(positions, range);
    int links = 0;
    for (NodeId a = 0; a < topology.node_count(); ++a) {
      std::vector<NodeId> expected;
      for (NodeId b = 0; b < topology.node_count(); ++b) {
        if (b != a &&
            DistanceSquared(positions[a], positions[b]) <= range * range) {
          expected.push_back(b);
        }
      }
      EXPECT_TRUE(std::ranges::equal(topology.neighbors(a), expected))
          << "node " << a;
      links += static_cast<int>(expected.size());
    }
    EXPECT_EQ(topology.link_count(), links / 2);
  }
}

// Union-find labeling of `topology` minus the masked links and every link
// of a dead node, numbered by lowest member id.
std::vector<int> BruteForceComponents(
    const Topology& topology,
    const std::vector<std::pair<NodeId, NodeId>>& down,
    const std::vector<NodeId>& dead) {
  const int n = topology.node_count();
  std::vector<int> root(n);
  std::iota(root.begin(), root.end(), 0);
  auto find = [&](int x) {
    while (root[x] != x) x = root[x] = root[root[x]];
    return x;
  };
  auto is_dead = [&](NodeId x) {
    return std::find(dead.begin(), dead.end(), x) != dead.end();
  };
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (!topology.AreNeighbors(a, b) || is_dead(a) || is_dead(b)) continue;
      if (std::find(down.begin(), down.end(), std::pair{a, b}) != down.end() ||
          std::find(down.begin(), down.end(), std::pair{b, a}) != down.end()) {
        continue;
      }
      root[find(a)] = find(b);
    }
  }
  std::vector<int> label(n);
  std::vector<int> root_label(n, -1);
  int next = 0;
  for (NodeId a = 0; a < n; ++a) {
    int& l = root_label[find(a)];
    if (l < 0) l = next++;
    label[a] = l;
  }
  return label;
}

TEST(ComponentMapTest, MatchesBruteForceOnMaskedGraphs) {
  Rng rng(5);
  for (int trial = 0; trial < 12; ++trial) {
    Topology topology(UniformDraws(90, {300.0, 300.0}, 100 + trial), 45.0);
    std::vector<std::pair<NodeId, NodeId>> down;
    for (NodeId a = 0; a < topology.node_count(); ++a) {
      for (NodeId b : topology.neighbors(a)) {
        if (a < b && rng.Bernoulli(0.3)) {
          // Either orientation names the same undirected link.
          down.push_back(rng.Bernoulli(0.5) ? std::pair{a, b}
                                            : std::pair{b, a});
        }
      }
    }
    std::vector<NodeId> dead;
    for (NodeId a = 0; a < topology.node_count(); ++a) {
      if (rng.Bernoulli(0.1)) dead.push_back(a);
    }
    const std::vector<int> expected =
        BruteForceComponents(topology, down, dead);
    const ComponentMap map =
        BuildComponents(Topology::WithFailures(topology, down, dead));
    EXPECT_EQ(map.component, expected) << "trial " << trial;
    EXPECT_EQ(map.component_count,
              *std::max_element(expected.begin(), expected.end()) + 1);
  }
}

TEST(TopologyTest, OutOfRangeNodeIdAborts) {
  Topology line = MakeLine(3, 10.0, 10.0);
  EXPECT_DEATH(line.position(3), "out of range");
  EXPECT_DEATH(line.neighbors(-1), "out of range");
}

}  // namespace
}  // namespace m2m
