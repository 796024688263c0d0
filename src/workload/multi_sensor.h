#ifndef M2M_WORKLOAD_MULTI_SENSOR_H_
#define M2M_WORKLOAD_MULTI_SENSOR_H_

#include <vector>

#include "common/ids.h"
#include "topology/topology.h"

namespace m2m {

/// The paper assumes one reading per node — and at most one aggregation
/// function per destination — "for simplicity of presentation", noting both
/// generalizations are straightforward (§2.1). We realize them without
/// touching the planner: each extra sensor (or extra function slot at a
/// destination) becomes a *virtual node* co-located with its host.
/// Virtual nodes inherit the host's radio neighborhood (zero distance), and
/// the virtual-to-host link is a local bus — reading a co-located sensor
/// costs no radio energy, which the executor honors via a free-link
/// predicate.
struct SensorSpec {
  NodeId host = kInvalidNode;
};

class MultiSensorNetwork {
 public:
  /// Expands `base` with one virtual node per extra sensor.
  MultiSensorNetwork(const Topology& base,
                     const std::vector<SensorSpec>& sensors);

  MultiSensorNetwork(const MultiSensorNetwork&) = default;
  MultiSensorNetwork& operator=(const MultiSensorNetwork&) = default;
  MultiSensorNetwork(MultiSensorNetwork&&) noexcept = default;
  MultiSensorNetwork& operator=(MultiSensorNetwork&&) noexcept = default;

  const Topology& expanded_topology() const { return expanded_; }

  /// Virtual node id of the i-th extra sensor.
  NodeId sensor_id(int sensor_index) const;
  int extra_sensor_count() const { return static_cast<int>(hosts_.size()); }

  /// Host node of any id (identity for physical nodes).
  NodeId HostOf(NodeId id) const;
  bool IsVirtual(NodeId id) const;

  /// True iff the hop a->b is a local bus transfer (between co-located ids
  /// of the same host), which costs no radio energy.
  bool IsLocalBusLink(NodeId a, NodeId b) const;

 private:
  int base_count_ = 0;
  Topology expanded_;
  std::vector<NodeId> hosts_;  // Indexed by sensor index.
};

}  // namespace m2m

#endif  // M2M_WORKLOAD_MULTI_SENSOR_H_
