#ifndef M2M_MAC_CSMA_H_
#define M2M_MAC_CSMA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "plan/node_tables.h"
#include "sim/energy_model.h"
#include "topology/topology.h"

namespace m2m {

/// Parameters of the CSMA/CA-style medium-access layer (defaults match a
/// Mica2-class CC1000 radio at 38.4 kbps).
struct CsmaConfig {
  double bit_rate_bps = 38400.0;
  /// Initial backoff window; doubles per retry up to the maximum.
  double backoff_init_ms = 2.0;
  double backoff_max_ms = 64.0;
  /// Retransmissions before a hop is abandoned.
  int max_retries = 10;
  /// Link-layer acknowledgment payload (header is added on top).
  int ack_payload_bytes = 2;
  /// Carrier-sense and interference range equal the radio range (the
  /// protocol interference model).

  double BytesToMs(int bytes) const {
    return bytes * 8.0 * 1000.0 / bit_rate_bps;
  }
};

/// Outcome of one round executed through the MAC simulator.
struct MacRoundResult {
  double energy_mj = 0.0;
  /// Wall-clock time until the last delivery (the round's latency).
  double completion_ms = 0.0;
  int64_t attempts = 0;     ///< Data transmissions started (incl. retries).
  int64_t collisions = 0;   ///< Receptions corrupted by interference.
  int64_t busy_backoffs = 0;  ///< Attempts deferred by carrier sense.
  int64_t hops_delivered = 0;
  int64_t hops_failed = 0;  ///< Hops abandoned after max_retries.
  std::vector<double> node_energy_mj;
};

/// Discrete-event CSMA simulation of one full round of a compiled plan:
/// every scheduled message traverses its physical segment hop by hop; a hop
/// may start once the message's wait-for dependencies are delivered and the
/// previous hop is done; senders carrier-sense, back off on a busy medium,
/// collide under the protocol interference model, and retransmit on missing
/// acknowledgments. Energy covers every data attempt, successful
/// receptions, and acknowledgments in both directions.
///
/// This validates the analytic round executor: with the same plan, MAC
/// energy is the analytic energy plus collision/retry/ack overhead, and the
/// completion time exposes the latency structure Theorem 2's wait-for DAG
/// induces.
class CsmaSimulator {
 public:
  CsmaSimulator(std::shared_ptr<const CompiledPlan> compiled,
                const Topology& topology, EnergyModel energy,
                CsmaConfig config = {});

  CsmaSimulator(const CsmaSimulator&) = default;
  CsmaSimulator& operator=(const CsmaSimulator&) = default;
  CsmaSimulator(CsmaSimulator&&) noexcept = default;
  CsmaSimulator& operator=(CsmaSimulator&&) noexcept = default;

  /// Runs one round; deterministic in `seed`.
  MacRoundResult RunRound(uint64_t seed) const;

 private:
  std::shared_ptr<const CompiledPlan> compiled_;
  const Topology* topology_;
  EnergyModel energy_;
  CsmaConfig config_;

  /// message id -> ids of messages it waits for.
  std::vector<std::vector<int>> message_deps_;
  /// message id -> payload bytes.
  std::vector<int> message_payload_;
};

}  // namespace m2m

#endif  // M2M_MAC_CSMA_H_
