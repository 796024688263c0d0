#include "topology/mobility.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"

namespace m2m {

namespace {

// Dedicated stream label: mobility draws must never share a stream with
// fault schedules (seed ^ 0xfa017) or any other seeded component.
constexpr uint64_t kMobilityStream = 0x6d0b113700ULL;

Area MovementArea(const MobilityOptions& options,
                  const std::vector<Point>& positions) {
  if (options.area.width > 0.0 && options.area.height > 0.0) {
    return options.area;
  }
  Area area;
  for (const Point& p : positions) {
    area.width = std::max(area.width, p.x);
    area.height = std::max(area.height, p.y);
  }
  return area;
}

// Advances a drifting node one round: jitter the heading, step, reflect
// component-wise off the area bounds.
void DriftStep(Point& position, double& heading, double speed,
               double turn_sigma, const Area& area, Rng& rng) {
  heading += rng.Gaussian() * turn_sigma;
  double vx = std::cos(heading) * speed;
  double vy = std::sin(heading) * speed;
  double x = position.x + vx;
  double y = position.y + vy;
  if (x < 0.0 || x > area.width) {
    vx = -vx;
    x = position.x + vx;
  }
  if (y < 0.0 || y > area.height) {
    vy = -vy;
    y = position.y + vy;
  }
  position = area.Clamp(Point{x, y});
  heading = std::atan2(vy, vx);
}

}  // namespace

std::string ToString(MobilityModel model) {
  switch (model) {
    case MobilityModel::kStatic:
      return "static";
    case MobilityModel::kRandomWaypoint:
      return "random-waypoint";
    case MobilityModel::kVelocityDrift:
      return "velocity-drift";
  }
  return "unknown";
}

MobilityTrace MobilityTrace::Generate(const Topology& topology,
                                      const MobilityOptions& options) {
  M2M_CHECK_GE(options.rounds, 0);
  M2M_CHECK_GE(options.speed_m_per_round, 0.0);
  const int n = topology.node_count();

  std::vector<bool> anchored(n, false);
  for (NodeId a : options.anchored) {
    M2M_CHECK(a >= 0 && a < n);
    anchored[a] = true;
  }

  std::vector<std::vector<Point>> positions;
  positions.reserve(static_cast<size_t>(options.rounds) + 1);
  positions.push_back(topology.positions());
  const Area area = MovementArea(options, positions[0]);

  const bool moves = options.model != MobilityModel::kStatic &&
                     options.speed_m_per_round > 0.0;
  if (moves) {
    // Per-node forked streams: each node's movement is deterministic in
    // (seed, node) alone, independent of every other node's draws.
    Rng root(SplitMix64(options.seed ^ kMobilityStream));
    struct NodeState {
      Rng rng;
      Point target;      // Waypoint target.
      int pause_left = 0;
      double heading = 0.0;  // Drift heading.
    };
    std::vector<NodeState> states;
    states.reserve(static_cast<size_t>(n));
    for (NodeId node = 0; node < n; ++node) {
      NodeState state{root.Fork(static_cast<uint64_t>(node) + 1),
                      Point{}, 0, 0.0};
      if (options.model == MobilityModel::kRandomWaypoint) {
        state.target = Point{state.rng.UniformDouble(0.0, area.width),
                             state.rng.UniformDouble(0.0, area.height)};
      } else {
        state.heading = state.rng.UniformDouble(0.0, 2.0 * 3.14159265358979);
      }
      states.push_back(std::move(state));
    }

    for (int round = 1; round <= options.rounds; ++round) {
      std::vector<Point> next = positions.back();
      for (NodeId node = 0; node < n; ++node) {
        if (anchored[node]) continue;
        NodeState& state = states[node];
        if (options.model == MobilityModel::kRandomWaypoint) {
          if (state.pause_left > 0) {
            --state.pause_left;
            continue;
          }
          Point& p = next[node];
          double dx = state.target.x - p.x;
          double dy = state.target.y - p.y;
          double dist = std::sqrt(dx * dx + dy * dy);
          if (dist <= options.speed_m_per_round) {
            p = state.target;
            state.pause_left = options.pause_rounds;
            state.target =
                Point{state.rng.UniformDouble(0.0, area.width),
                      state.rng.UniformDouble(0.0, area.height)};
          } else {
            p.x += dx / dist * options.speed_m_per_round;
            p.y += dy / dist * options.speed_m_per_round;
          }
        } else {
          DriftStep(next[node], state.heading, options.speed_m_per_round,
                    options.turn_sigma_rad, area, state.rng);
        }
      }
      positions.push_back(std::move(next));
    }
  } else {
    for (int round = 1; round <= options.rounds; ++round) {
      positions.push_back(positions[0]);
    }
  }

  MobilityTrace trace;
  trace.positions_ = std::move(positions);
  trace.IndexLinkStates(topology);
  return trace;
}

MobilityTrace::MobilityTrace(
    const Topology& topology,
    std::vector<std::vector<Point>> positions_per_round) {
  M2M_CHECK(!positions_per_round.empty());
  for (const std::vector<Point>& round_positions : positions_per_round) {
    M2M_CHECK_EQ(static_cast<int>(round_positions.size()),
                 topology.node_count());
  }
  positions_ = std::move(positions_per_round);
  IndexLinkStates(topology);
}

void MobilityTrace::IndexLinkStates(const Topology& topology) {
  const double range_sq =
      topology.radio_range_m() * topology.radio_range_m();
  link_begin_.assign(1, 0);
  link_hi_.clear();
  for (NodeId a = 0; a < topology.node_count(); ++a) {
    for (NodeId b : topology.neighbors(a)) {
      if (a < b) link_hi_.push_back(b);
    }
    link_begin_.push_back(link_hi_.size());
  }

  down_.assign(positions_.size() * link_hi_.size(), false);
  events_.clear();
  for (size_t round = 0; round < positions_.size(); ++round) {
    const std::vector<Point>& at = positions_[round];
    for (NodeId a = 0; a < topology.node_count(); ++a) {
      for (size_t link = link_begin_[a]; link < link_begin_[a + 1]; ++link) {
        const NodeId b = link_hi_[link];
        const bool up = DistanceSquared(at[a], at[b]) <= range_sq;
        down_[round * link_hi_.size() + link] = !up;
        if (round == 0 || up != Down(round - 1, link)) continue;
        events_.push_back(LinkEvent{static_cast<int>(round), a, b, up});
        if (up) {
          ++total_makes_;
        } else {
          ++total_breaks_;
        }
      }
    }
  }
}

const std::vector<Point>& MobilityTrace::PositionsAt(int round) const {
  const int clamped = std::clamp(round, 0, rounds());
  return positions_[static_cast<size_t>(clamped)];
}

bool MobilityTrace::LinkUpAt(int round, NodeId a, NodeId b) const {
  const NodeId lo = std::min(a, b);
  const NodeId hi = std::max(a, b);
  if (lo < 0 || static_cast<size_t>(hi) + 1 >= link_begin_.size()) {
    return true;
  }
  const auto first = link_hi_.begin() + link_begin_[lo];
  const auto last = link_hi_.begin() + link_begin_[lo + 1];
  const auto it = std::lower_bound(first, last, hi);
  if (it == last || *it != hi) return true;
  const int clamped = std::clamp(round, 0, rounds());
  return !Down(static_cast<size_t>(clamped),
               static_cast<size_t>(it - link_hi_.begin()));
}

std::vector<std::pair<NodeId, NodeId>> MobilityTrace::DownLinksAt(
    int round) const {
  const size_t clamped = static_cast<size_t>(std::clamp(round, 0, rounds()));
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId a = 0; a + 1 < static_cast<NodeId>(link_begin_.size()); ++a) {
    for (size_t link = link_begin_[a]; link < link_begin_[a + 1]; ++link) {
      if (Down(clamped, link)) out.emplace_back(a, link_hi_[link]);
    }
  }
  return out;
}

int MobilityTrace::down_link_count(int round) const {
  const size_t clamped = static_cast<size_t>(std::clamp(round, 0, rounds()));
  const auto first = down_.begin() + clamped * link_hi_.size();
  return static_cast<int>(std::count(first, first + link_hi_.size(), true));
}

std::vector<LinkEvent> MobilityTrace::EventsAt(int round) const {
  std::vector<LinkEvent> out;
  for (const LinkEvent& event : events_) {
    if (event.round == round) out.push_back(event);
  }
  return out;
}

std::string MobilityTrace::Describe() const {
  std::ostringstream os;
  os << "mobility-trace rounds=" << rounds() << " breaks=" << total_breaks_
     << " makes=" << total_makes_ << "\n";
  for (const LinkEvent& event : events_) {
    os << "  r" << event.round << " " << (event.up ? "make" : "break")
       << " " << event.a << "-" << event.b << "\n";
  }
  return os.str();
}

}  // namespace m2m
