#include "sim/mobility_sim.h"

namespace m2m {

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
