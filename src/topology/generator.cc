#include "topology/generator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace m2m {

namespace {

// Moves stranded nodes until the disk graph is connected, and returns that
// graph: repeatedly takes the node outside the largest component (the
// first of maximum size, in lowest-member-id order) that is closest to it
// and drops the node just inside radio range of its nearest in-component
// node.
Topology RepairConnectivity(std::vector<Point> positions, double range_m) {
  const int n = static_cast<int>(positions.size());
  for (int guard = 0; guard < 4 * n; ++guard) {
    Topology topology(std::move(positions), range_m);
    const ComponentMap components = BuildComponents(topology);
    if (components.component_count == 1) return topology;
    const std::vector<int> sizes = components.Sizes();
    const int largest = static_cast<int>(
        std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
    positions = topology.positions();
    // Closest (inside, outside) pair.
    double best_dist_sq = -1.0;
    int best_in = -1;
    int best_out = -1;
    for (int a = 0; a < n; ++a) {
      if (components.ComponentOf(a) != largest) continue;
      for (int b = 0; b < n; ++b) {
        if (components.ComponentOf(b) == largest) continue;
        double d = DistanceSquared(positions[a], positions[b]);
        if (best_dist_sq < 0.0 || d < best_dist_sq) {
          best_dist_sq = d;
          best_in = a;
          best_out = b;
        }
      }
    }
    M2M_CHECK_GE(best_in, 0);
    // Place the stranded node at 90% of radio range from its anchor, along
    // the original direction (keeps the deployment shape plausible).
    Point anchor = positions[best_in];
    Point stray = positions[best_out];
    double dist = Distance(anchor, stray);
    double scale = dist < 1e-9 ? 0.0 : 0.9 * range_m / dist;
    positions[best_out] = Point{anchor.x + (stray.x - anchor.x) * scale,
                                anchor.y + (stray.y - anchor.y) * scale};
  }
  M2M_CHECK(false) << "connectivity repair did not converge";
}

}  // namespace

Topology MakeGreatDuckIslandLike(uint64_t seed) {
  // 68 nodes in 106 x 203 m^2 (paper section 4). The real deployment placed
  // motes in petrel burrows grouped in patches; we mimic that with several
  // elongated clusters along the long axis plus a few scattered motes.
  const Area area{106.0, 203.0};
  const int total_nodes = 68;
  Rng rng(seed);

  struct Cluster {
    Point center;
    double stddev;
    int count;
  };
  const std::vector<Cluster> clusters = {
      {{30.0, 25.0}, 14.0, 12}, {{75.0, 55.0}, 13.0, 11},
      {{40.0, 95.0}, 15.0, 13}, {{80.0, 140.0}, 13.0, 11},
      {{35.0, 170.0}, 14.0, 11},
  };
  std::vector<Point> positions;
  positions.reserve(total_nodes);
  for (const Cluster& c : clusters) {
    for (int i = 0; i < c.count; ++i) {
      Point p{c.center.x + rng.Gaussian() * c.stddev,
              c.center.y + rng.Gaussian() * c.stddev};
      positions.push_back(area.Clamp(p));
    }
  }
  // Scattered singles filling the remainder.
  while (static_cast<int>(positions.size()) < total_nodes) {
    positions.push_back(Point{rng.UniformDouble(0.0, area.width),
                              rng.UniformDouble(0.0, area.height)});
  }
  return RepairConnectivity(std::move(positions), kDefaultRadioRangeM);
}

Topology MakeUniformRandom(int count, Area area, double radio_range_m,
                           uint64_t seed) {
  M2M_CHECK_GT(count, 0);
  Rng rng(seed);
  std::vector<Point> positions;
  positions.reserve(count);
  for (int i = 0; i < count; ++i) {
    positions.push_back(Point{rng.UniformDouble(0.0, area.width),
                              rng.UniformDouble(0.0, area.height)});
  }
  return RepairConnectivity(std::move(positions), radio_range_m);
}

Topology MakeGrid(int cols, int rows, double spacing_m,
                  double radio_range_m) {
  M2M_CHECK_GT(cols, 0);
  M2M_CHECK_GT(rows, 0);
  std::vector<Point> positions;
  positions.reserve(static_cast<size_t>(cols) * rows);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      positions.push_back(Point{c * spacing_m, r * spacing_m});
    }
  }
  return Topology(std::move(positions), radio_range_m);
}

Topology MakeClustered(int count, int cluster_count, Area area,
                       double cluster_stddev_m, double radio_range_m,
                       uint64_t seed) {
  M2M_CHECK_GT(count, 0);
  M2M_CHECK_GT(cluster_count, 0);
  Rng rng(seed);
  std::vector<Point> centers;
  centers.reserve(cluster_count);
  for (int i = 0; i < cluster_count; ++i) {
    centers.push_back(Point{rng.UniformDouble(0.0, area.width),
                            rng.UniformDouble(0.0, area.height)});
  }
  std::vector<Point> positions;
  positions.reserve(count);
  for (int i = 0; i < count; ++i) {
    const Point& c = centers[i % cluster_count];
    Point p{c.x + rng.Gaussian() * cluster_stddev_m,
            c.y + rng.Gaussian() * cluster_stddev_m};
    positions.push_back(area.Clamp(p));
  }
  return RepairConnectivity(std::move(positions), radio_range_m);
}

std::vector<Topology> MakeScalingSeries(const std::vector<int>& node_counts,
                                        uint64_t seed) {
  // Baseline density: 68 nodes per 106 x 203 m^2, aspect ratio preserved.
  const double base_density = 68.0 / (106.0 * 203.0);
  const double aspect = 203.0 / 106.0;
  std::vector<Topology> series;
  series.reserve(node_counts.size());
  for (size_t i = 0; i < node_counts.size(); ++i) {
    int count = node_counts[i];
    double size = count / base_density;
    double width = std::sqrt(size / aspect);
    Area area{width, width * aspect};
    series.push_back(MakeUniformRandom(count, area, kDefaultRadioRangeM,
                                       SplitMix64(seed + i)));
  }
  return series;
}

}  // namespace m2m
