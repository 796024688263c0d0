#include "sim/mobility_sim.h"

#include "common/check.h"

namespace m2m {

LossyLinkModel WithMobility(const LossyLinkModel& base,
                            const MobilityTrace& trace, int round) {
  M2M_CHECK(base.attempt_delivers != nullptr);
  LossyLinkModel masked = base;
  // Capture the base delegate by value: the returned model must not dangle
  // if `base` goes out of scope before the round runs.
  auto base_delivers = base.attempt_delivers;
  masked.attempt_delivers = [&trace, round, base_delivers](
                                NodeId from, NodeId to, int attempt) {
    return trace.LinkUpAt(round, from, to) &&
           base_delivers(from, to, attempt);
  };
  return masked;
}

MobilityMetricHandles RegisterMobilityMetrics(obs::MetricsRegistry& metrics) {
  MobilityMetricHandles handles;
  handles.link_breaks = metrics.Counter("mobility.link_breaks");
  handles.link_makes = metrics.Counter("mobility.link_makes");
  handles.links_down = metrics.Gauge("mobility.links_down");
  return handles;
}

void RecordMobilityRound(const MobilityTrace& trace, int round,
                         obs::MetricsRegistry& metrics,
                         const MobilityMetricHandles& handles) {
  for (const LinkEvent& event : trace.EventsAt(round)) {
    if (event.up) {
      metrics.AddEdge(handles.link_makes, event.a, event.b);
    } else {
      metrics.AddEdge(handles.link_breaks, event.a, event.b);
    }
  }
  metrics.Set(handles.links_down, trace.down_link_count(round));
}

}  // namespace m2m
