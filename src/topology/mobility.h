#ifndef M2M_TOPOLOGY_MOBILITY_H_
#define M2M_TOPOLOGY_MOBILITY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "geom/point.h"
#include "topology/topology.h"

namespace m2m {

/// Continuous-movement model for a deployment (ROADMAP item 5). Mobility
/// perturbs the *link layer*, not the plan: nodes move between rounds, and
/// a deployment link is up in a round iff its endpoints are within radio
/// range at that round. The planner keeps working against the immutable
/// deployment topology; broken links are discovered in-band by the failure
/// detector exactly like persistent link faults, and re-made links earn
/// readmission through probation.
enum class MobilityModel : uint8_t {
  /// Nobody moves. A trace with this model (or zero speed) masks nothing:
  /// existing fault-schedule runs composed with it are byte-identical.
  kStatic,
  /// Random waypoint: each mobile node repeatedly draws a uniform target in
  /// the movement area, travels toward it at `speed_m_per_round`, pauses
  /// `pause_rounds`, then draws the next target.
  kRandomWaypoint,
  /// Velocity drift: each mobile node keeps a heading that jitters by a
  /// Gaussian of `turn_sigma_rad` per round and advances
  /// `speed_m_per_round` along it, reflecting off the area bounds.
  /// Produces *correlated* link make/break streams: a drifting node breaks
  /// and re-makes whole neighborhoods over consecutive rounds.
  kVelocityDrift,
};

std::string ToString(MobilityModel model);

struct MobilityOptions {
  MobilityModel model = MobilityModel::kStatic;
  /// Rounds of movement to precompute. Queries past the last round see the
  /// final positions (movement stops, like a schedule running out).
  int rounds = 0;
  double speed_m_per_round = 0.0;
  /// Waypoint pause at each reached target, in rounds.
  int pause_rounds = 2;
  /// Per-round heading jitter of the drift model (radians, std dev).
  double turn_sigma_rad = 0.3;
  /// Movement bounds. A zero area defaults to the bounding box of the
  /// initial positions.
  Area area;
  /// Nodes that never move (typically the base station and destinations —
  /// deployments wire sinks for power and backhaul).
  std::vector<NodeId> anchored;
  uint64_t seed = 1;
};

/// One link make (`up = true`) or break (`up = false`) event, relative to
/// the previous round's state. Only deployment-graph links appear.
struct LinkEvent {
  int round = 0;
  NodeId a = kInvalidNode;  ///< Lower endpoint.
  NodeId b = kInvalidNode;  ///< Higher endpoint.
  bool up = false;

  friend bool operator==(const LinkEvent&, const LinkEvent&) = default;
};

/// A precomputed, deterministic mobility trace: per-round node positions
/// plus the induced per-round state of every deployment link (up iff its
/// endpoints are within `radio_range_m` that round). The generator draws
/// from its own dedicated RNG stream — creating a trace perturbs no other
/// seeded stream, so existing fault schedules and readings stay
/// byte-identical whether or not mobility is configured (guarded by the
/// RNG-stream-separation regression in tests/mobility_test.cc).
class MobilityTrace {
 public:
  /// Generates movement per `options` starting from `topology`'s positions.
  static MobilityTrace Generate(const Topology& topology,
                                const MobilityOptions& options);

  /// A scripted trace from explicit per-round positions (round 0 first).
  /// `positions_per_round` must be non-empty and each entry must have one
  /// point per node. Used by tests and benches to build exact
  /// split-then-merge partition scenarios.
  MobilityTrace(const Topology& topology,
                std::vector<std::vector<Point>> positions_per_round);

  /// Last round with distinct movement state; queries clamp to it.
  int rounds() const { return static_cast<int>(positions_.size()) - 1; }

  const std::vector<Point>& PositionsAt(int round) const;

  /// True iff the (deployment) link a-b is geometrically up at `round`.
  /// Pairs that are not deployment links return true — the mask only ever
  /// removes capacity, so compose it with a base link model via
  /// conjunction (PhysicalLayer, sim/physical_layer.h).
  bool LinkUpAt(int round, NodeId a, NodeId b) const;

  /// Deployment links down at `round`, sorted (lo, hi).
  std::vector<std::pair<NodeId, NodeId>> DownLinksAt(int round) const;

  /// Number of deployment links down at `round`.
  int down_link_count(int round) const;

  /// All make/break events, ordered by (round, a, b).
  const std::vector<LinkEvent>& events() const { return events_; }

  /// Events taking effect at exactly `round`.
  std::vector<LinkEvent> EventsAt(int round) const;

  /// Total break events across the trace (a measure of movement churn).
  int64_t total_breaks() const { return total_breaks_; }
  int64_t total_makes() const { return total_makes_; }

  /// Human-readable event summary (stable across runs).
  std::string Describe() const;

 private:
  MobilityTrace() = default;

  /// Computes the per-round link bits and the event stream from
  /// `positions_`.
  void IndexLinkStates(const Topology& topology);

  /// Whether link `link` (an index into link_hi_) is down at `round`.
  bool Down(size_t round, size_t link) const {
    return down_[round * link_hi_.size() + link];
  }

  std::vector<std::vector<Point>> positions_;  ///< [round][node].
  /// The deployment links in (lo, hi) order: lo's higher-id neighbors are
  /// link_hi_[link_begin_[lo], link_begin_[lo + 1]), and a link's index is
  /// its position in link_hi_.
  std::vector<size_t> link_begin_;
  std::vector<NodeId> link_hi_;
  /// One bit per round and deployment link, set iff the link is down:
  /// round r's bits are [r * link_hi_.size(), (r + 1) * link_hi_.size()).
  std::vector<bool> down_;
  std::vector<LinkEvent> events_;
  int64_t total_breaks_ = 0;
  int64_t total_makes_ = 0;
};

}  // namespace m2m

#endif  // M2M_TOPOLOGY_MOBILITY_H_
