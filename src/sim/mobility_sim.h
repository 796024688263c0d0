#ifndef M2M_SIM_MOBILITY_SIM_H_
#define M2M_SIM_MOBILITY_SIM_H_

#include "obs/metrics.h"
#include "runtime/network.h"
#include "topology/mobility.h"

namespace m2m {

/// Masks a physical link model with a mobility trace: an attempt on a
/// deployment link delivers iff the link is geometrically up at `round`
/// AND the base model delivers it. Everything else (aliveness, channel
/// effects) passes through — mobility moves radios, it does not corrupt
/// frames or kill nodes. With a static (or zero-speed) trace the returned
/// model produces byte-identical outcomes to `base`, which is the
/// RNG-stream-separation guarantee the mobility regression pins.
LossyLinkModel WithMobility(const LossyLinkModel& base,
                            const MobilityTrace& trace, int round);

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
