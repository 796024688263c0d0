#include "routing/lifetime_forest.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"

namespace m2m {

namespace {

/// Candidate forests tried: the first on pure residual costs (this
/// penalty), each later one also surcharging the previous candidate's
/// bottleneck's links by the step. Every candidate keeps PathSystem's
/// default perturbation seed.
constexpr int kIterations = 4;
constexpr double kResidualPenalty = 8.0;
constexpr double kBottleneckStep = 64.0;

/// min over loaded nodes of residual_mj / load; +inf when nothing is
/// loaded (empty workloads have unbounded lifetime).
double MinLifetime(const std::vector<double>& residual_mj,
                   const std::vector<double>& load) {
  double min_lifetime = std::numeric_limits<double>::infinity();
  for (size_t n = 0; n < load.size(); ++n) {
    if (load[n] <= 0.0) continue;
    min_lifetime = std::min(min_lifetime, residual_mj[n] / load[n]);
  }
  return min_lifetime;
}

/// The most-burdened node: argmin residual / load over loaded nodes (ties
/// break lowest id); kInvalidNode when nothing is loaded.
NodeId Bottleneck(const std::vector<double>& residual_mj,
                  const std::vector<double>& load) {
  NodeId bottleneck = kInvalidNode;
  double worst = std::numeric_limits<double>::infinity();
  for (size_t n = 0; n < load.size(); ++n) {
    if (load[n] <= 0.0) continue;
    const double lifetime = residual_mj[n] / load[n];
    if (lifetime < worst) {
      worst = lifetime;
      bottleneck = static_cast<NodeId>(n);
    }
  }
  return bottleneck;
}

}  // namespace

PathSystem::LinkCostFn ResidualEnergyLinkCost(
    std::vector<double> residual_fraction, double penalty) {
  M2M_CHECK_GE(penalty, 0.0);
  return [residual = std::move(residual_fraction), penalty](NodeId a,
                                                            NodeId b) {
    const double ra = std::clamp(residual[a], 0.0, 1.0);
    const double rb = std::clamp(residual[b], 0.0, 1.0);
    const double cost = 1.0 + penalty * ((1.0 - ra) + (1.0 - rb)) / 2.0;
    return std::min(cost, 1024.0);
  };
}

std::vector<double> ForestNodeLoad(const MulticastForest& forest,
                                   double tx_weight, double rx_weight) {
  std::vector<double> load(forest.node_count(), 0.0);
  for (const ForestEdge& edge : forest.edges()) {
    const double units = static_cast<double>(edge.pairs.size());
    for (size_t hop = 0; hop + 1 < edge.segment.size(); ++hop) {
      load[edge.segment[hop]] += tx_weight * units;
      load[edge.segment[hop + 1]] += rx_weight * units;
    }
  }
  return load;
}

MulticastForest BuildLifetimeMaxForest(
    const Topology& topology, std::vector<Task> tasks,
    const std::vector<double>& residual_mj, LifetimeForestStats* stats) {
  M2M_CHECK_EQ(static_cast<int>(residual_mj.size()), topology.node_count());

  // Normalize residuals to fractions of the best-charged node: the cost
  // function cares about *relative* depletion, and the builder then needs
  // no knowledge of initial charges.
  double max_residual = 0.0;
  for (double r : residual_mj) {
    M2M_CHECK_GE(r, 0.0);
    max_residual = std::max(max_residual, r);
  }
  std::vector<double> fraction(residual_mj.size(), 1.0);
  if (max_residual > 0.0) {
    for (size_t n = 0; n < residual_mj.size(); ++n) {
      fraction[n] = residual_mj[n] / max_residual;
    }
  }

  if (stats != nullptr) {
    PathSystem hop_paths(topology);
    MulticastForest baseline(hop_paths, tasks);
    stats->baseline_min_lifetime = MinLifetime(
        residual_mj,
        ForestNodeLoad(baseline, kForestTxLoadWeight, kForestRxLoadWeight));
  }

  // Iterative max-min reweighting: start from residual-aware costs, then
  // keep surcharging whichever node the current candidate burdens most,
  // forcing later candidates to route around it. Keep the best candidate
  // seen (earliest on ties — determinism).
  std::vector<double> surcharge(residual_mj.size(), 0.0);
  std::optional<MulticastForest> best;
  double best_lifetime = -1.0;
  int best_iteration = 0;
  int iterations_run = 0;
  for (int iteration = 0; iteration < kIterations; ++iteration) {
    const PathSystem::LinkCostFn residual_cost =
        ResidualEnergyLinkCost(fraction, kResidualPenalty);
    PathSystem::LinkCostFn cost = [&residual_cost, &surcharge](NodeId a,
                                                               NodeId b) {
      const double c =
          residual_cost(a, b) + (surcharge[a] + surcharge[b]) / 2.0;
      return std::min(c, 1024.0);
    };
    PathSystem paths(topology, /*perturbation_seed=*/0x5eed, cost);
    MulticastForest candidate(paths, tasks);
    const std::vector<double> load =
        ForestNodeLoad(candidate, kForestTxLoadWeight, kForestRxLoadWeight);
    const double lifetime = MinLifetime(residual_mj, load);
    ++iterations_run;
    if (lifetime > best_lifetime) {
      best_lifetime = lifetime;
      best_iteration = iteration;
      best = std::move(candidate);
    }
    const NodeId bottleneck = Bottleneck(residual_mj, load);
    if (bottleneck == kInvalidNode) break;  // Unloaded: nothing to shift.
    surcharge[bottleneck] += kBottleneckStep;
  }
  M2M_CHECK(best.has_value());

  if (stats != nullptr) {
    stats->iterations_run = iterations_run;
    stats->best_iteration = best_iteration;
    stats->best_min_lifetime = best_lifetime;
  }
  return *std::move(best);
}

}  // namespace m2m
