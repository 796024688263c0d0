#ifndef M2M_SIM_MOBILITY_SIM_H_
#define M2M_SIM_MOBILITY_SIM_H_

#include "obs/metrics.h"
#include "topology/mobility.h"

namespace m2m {

/// Pre-resolved handles for the mobility.* metric family.
struct MobilityMetricHandles {
  obs::MetricHandle link_breaks;  ///< mobility.link_breaks (counter).
  obs::MetricHandle link_makes;   ///< mobility.link_makes (counter).
  obs::MetricHandle links_down;   ///< mobility.links_down (gauge).
};

MobilityMetricHandles RegisterMobilityMetrics(obs::MetricsRegistry& metrics);

/// Records one round of mobility churn: counts the round's make/break
/// events (per-edge attributed) and sets the links-down gauge.
void RecordMobilityRound(const MobilityTrace& trace, int round,
                         obs::MetricsRegistry& metrics,
                         const MobilityMetricHandles& handles);

}  // namespace m2m

#endif  // M2M_SIM_MOBILITY_SIM_H_
