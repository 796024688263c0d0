#ifndef M2M_SIM_FAILURE_H_
#define M2M_SIM_FAILURE_H_

#include <cstdint>

#include "common/rng.h"
#include "plan/node_tables.h"
#include "routing/milestones.h"
#include "sim/energy_model.h"
#include "topology/topology.h"

namespace m2m {

/// The live topology of one round: each link of `topology` is up
/// independently with its stability probability, drawn in (a < b,
/// adjacency) order. Down links are masked out with Topology::WithFailures,
/// the one representation of a degraded graph.
Topology SampleLinkFailures(const Topology& topology,
                            const LinkStabilityModel& model, Rng& rng);

/// Outcome of one round executed under transient link failures (paper
/// section 3: milestones let the communication layer route around failed
/// links between consecutive milestones; a fully pinned plan cannot).
struct FailureRoundResult {
  double energy_mj = 0.0;
  int64_t messages_attempted = 0;
  int64_t messages_delivered = 0;
  /// Destinations whose aggregate arrived complete this round.
  int destinations_complete = 0;
  int destinations_total = 0;
  /// (source, destination) routes whose every edge delivered — the fraction
  /// of contributions that reached their aggregate this round.
  int64_t contributions_delivered = 0;
  int64_t contributions_total = 0;
};

/// Redundant state installed for failure handling (paper section 3 /
/// technical report: "alleviate the impact of failures by introducing some
/// redundant state into the network").
struct RedundancyOptions {
  /// Each one-hop plan edge (i, j) additionally stores a backup relay k (a
  /// common radio neighbor of i and j). When the direct link is down, the
  /// message detours i -> k -> j at two-hop cost, if both backup links are
  /// up. One extra table entry per edge.
  bool backup_relay = false;
};

/// Simulates one round of `compiled` over `live`, the planned topology
/// with this round's failed links masked out. For each
/// forest (virtual) edge, the communication layer may use any path of live
/// links between the edge's endpoints — this is exactly the flexibility
/// milestones buy; with an all-nodes milestone plan every segment is one
/// physical hop and a dead link means the message fails this round (unless
/// a configured backup relay saves it). Delivered messages are charged for
/// the live path actually taken; failed messages charge one transmit
/// attempt at the break point. A destination counts as complete iff every
/// edge on every of its routes delivered.
FailureRoundResult RunRoundWithFailures(const CompiledPlan& compiled,
                                        const FunctionSet& functions,
                                        const Topology& live,
                                        const EnergyModel& energy,
                                        const RedundancyOptions& redundancy =
                                            {});

}  // namespace m2m

#endif  // M2M_SIM_FAILURE_H_
