#ifndef M2M_SIM_PHYSICAL_LAYER_H_
#define M2M_SIM_PHYSICAL_LAYER_H_

#include <vector>

#include "runtime/channel.h"
#include "runtime/network.h"
#include "sim/fault_schedule.h"
#include "topology/mobility.h"

namespace m2m {

/// The radio of one deployment: the one composer of the LossyLinkModel the
/// runtime consumes (docs/THEORY.md §8). Every source is optional and
/// non-owning, and must outlive each model `Bind` returns. `Bind(round)`
/// asks down mask, mobility, faults, channel and base in that order and
/// delivers iff none refuses, so the channel (and its
/// `chan.burst_transitions`) sees only attempts every earlier source
/// delivers. A node is alive iff the down mask, the faults and the base
/// agree; with none of them `node_alive` is null. Hop effects and
/// `max_delay_ticks` are the channel's when it has effects, else the
/// base's. An empty layer binds the perfect radio.
struct PhysicalLayer {
  /// Per node: true iff down (a depleted battery, a crash). A down node
  /// neither transmits nor receives.
  const std::vector<bool>* down = nullptr;
  const MobilityTrace* mobility = nullptr;  ///< Links movement broke.
  const FaultSchedule* faults = nullptr;
  const ChannelModel* channel = nullptr;
  /// Any other radio (a caller's model, a custom predicate); its null
  /// members have no say.
  const LossyLinkModel* base = nullptr;

  LossyLinkModel Bind(int round) const;
};

}  // namespace m2m

#endif  // M2M_SIM_PHYSICAL_LAYER_H_
