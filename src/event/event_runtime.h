#ifndef M2M_EVENT_EVENT_RUNTIME_H_
#define M2M_EVENT_EVENT_RUNTIME_H_

#include <vector>

#include "event/transport.h"
#include "runtime/network.h"
#include "sim/energy_model.h"

namespace m2m::event {

/// Round-compatibility entry point over a RuntimeNetwork fleet:
/// `RunCompatRound` *is* `RuntimeNetwork::RunRoundLossy` over the
/// transport's link model, so traces, `runtime.*` metrics and aggregate
/// bits match by construction (tests/event_test.cc pins them with golden
/// digests over 20 seeds and four channel regimes). The engine borrows the
/// fleet: images, epochs and round state are the fleet's own.
class EventNetwork {
 public:
  explicit EventNetwork(RuntimeNetwork& fleet);

  /// Runs one round over `transport`'s link model. Metrics go to the
  /// fleet's own registry (RuntimeNetwork::set_metrics).
  RuntimeNetwork::LossyResult RunCompatRound(
      const std::vector<double>& readings,
      const RoundCompatTransport& transport, const RetryPolicy& retry = {},
      const EnergyModel& energy = {}, EventTrace* trace = nullptr);

 private:
  RuntimeNetwork* fleet_;
};

}  // namespace m2m::event

#endif  // M2M_EVENT_EVENT_RUNTIME_H_
