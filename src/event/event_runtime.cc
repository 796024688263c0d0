#include "event/event_runtime.h"

namespace m2m::event {

EventNetwork::EventNetwork(RuntimeNetwork& fleet) : fleet_(&fleet) {}

RuntimeNetwork::LossyResult EventNetwork::RunCompatRound(
    const std::vector<double>& readings,
    const RoundCompatTransport& transport, const RetryPolicy& retry,
    const EnergyModel& energy, EventTrace* trace) {
  return fleet_->RunRoundLossy(readings, transport.links(), retry, energy,
                               trace);
}

}  // namespace m2m::event
