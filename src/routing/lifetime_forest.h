#ifndef M2M_ROUTING_LIFETIME_FOREST_H_
#define M2M_ROUTING_LIFETIME_FOREST_H_

#include <vector>

#include "common/ids.h"
#include "common/relation.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "topology/topology.h"

namespace m2m {

/// Residual-energy-aware link cost (Buragohain et al., "Power Aware Routing
/// for Sensor Databases"): a link costs more the more depleted its
/// endpoints are, steering routes away from nearly-exhausted relays.
/// `residual_fraction[n]` is node n's remaining battery as a fraction of
/// its initial charge (clamped to [0, 1] here). The returned cost is
///   1 + penalty * ((1 - r_a) + (1 - r_b)) / 2
/// clamped to PathSystem's accepted [1, 1024] cost range, so any penalty is
/// safe. Full batteries everywhere give a constant cost of exactly 1.0 —
/// byte-identical paths to the default hop-count metric (the
/// battery-feature-off differential relies on this).
PathSystem::LinkCostFn ResidualEnergyLinkCost(
    std::vector<double> residual_fraction, double penalty);

/// Relative per-unit TX/RX load weights of the bottleneck metric
/// (ForestNodeLoad). They mirror the Mica2 per-byte energies (16.9 / 6.25
/// uJ) without depending on sim/ — routing stays a leaf library.
inline constexpr double kForestTxLoadWeight = 16.9;
inline constexpr double kForestRxLoadWeight = 6.25;

/// Diagnostics from BuildLifetimeMaxForest.
struct LifetimeForestStats {
  int iterations_run = 0;
  /// Iteration whose forest was kept (ties break earliest).
  int best_iteration = 0;
  /// min over loaded nodes of residual_mj / load of the kept forest — the
  /// max-min lifetime objective, in rounds-to-first-death units under the
  /// load proxy.
  double best_min_lifetime = 0.0;
  /// Same metric for the plain hop-count forest (the paper's min-cost
  /// builder), for comparison.
  double baseline_min_lifetime = 0.0;
};

/// Per-node relay load proxy of a forest: every physical hop of every edge
/// charges tx_weight * |pairs| at its transmitter and rx_weight * |pairs|
/// at its receiver. |pairs| (the source-destination pairs routed through
/// the edge) upper-bounds the units the hop will carry; the planner's
/// covers only shrink it, so the proxy ranks relay hot spots correctly
/// without routing/ knowing anything about plans.
std::vector<double> ForestNodeLoad(const MulticastForest& forest,
                                   double tx_weight, double rx_weight);

/// Lifetime-maximizing multicast forest (Kuo et al.-style max-min residual
/// energy): iteratively reweights links — residual-energy costs first, then
/// escalating surcharges on the current bottleneck node — and keeps the
/// candidate maximizing min_n residual_mj[n] / load[n]. Every candidate is
/// built from a consistent PathSystem, so the returned forest satisfies the
/// paper's minimality and path-sharing restrictions (Theorem 1 still
/// applies) regardless of which iteration wins. Deterministic: same
/// inputs, same forest.
MulticastForest BuildLifetimeMaxForest(const Topology& topology,
                                       std::vector<Task> tasks,
                                       const std::vector<double>& residual_mj,
                                       LifetimeForestStats* stats = nullptr);

}  // namespace m2m

#endif  // M2M_ROUTING_LIFETIME_FOREST_H_
