#include "runtime/detector.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace m2m {

FailureDetector::FailureDetector(const Topology& topology,
                                 DetectorOptions options)
    : topology_(&topology), options_(options) {
  missed_.assign(2 * static_cast<size_t>(topology.link_count()), 0);
  heard_mark_.assign(missed_.size(), 0);
  slot_suspected_.assign(missed_.size(), 0);
  M2M_CHECK_GE(options_.suspicion_threshold, 1);
  M2M_CHECK_GE(options_.probation_rounds, 1);
  M2M_CHECK_GE(options_.probation_backoff_factor, 1);
  M2M_CHECK_GE(options_.max_probation_rounds, options_.probation_rounds);
  M2M_CHECK_GE(options_.flap_forgiveness_rounds, 1);
}

int FailureDetector::EscalatedProbation(
    const std::pair<NodeId, NodeId>& link, int round) {
  if (options_.probation_backoff_factor <= 1) return options_.probation_rounds;
  auto it = flaps_.find(link);
  if (it != flaps_.end() && it->second.last_readmit_round >= 0 &&
      round - it->second.last_readmit_round >
          options_.flap_forgiveness_rounds) {
    // The link behaved for a full forgiveness window since its last
    // readmission: wipe the streak so this suspicion starts from the base
    // probation again.
    flaps_.erase(it);
    it = flaps_.end();
  }
  FlapRecord& record = it == flaps_.end() ? flaps_[link] : it->second;
  const int prior = record.resuspicions;
  ++record.resuspicions;
  int required = options_.probation_rounds;
  for (int i = 0; i < prior; ++i) {
    if (required > options_.max_probation_rounds /
                       options_.probation_backoff_factor) {
      return options_.max_probation_rounds;
    }
    required *= options_.probation_backoff_factor;
  }
  return std::min(required, options_.max_probation_rounds);
}

FailureDetector::RoundReport FailureDetector::ObserveRound(
    int round, const std::vector<std::pair<NodeId, NodeId>>& heard,
    const AttemptDelivers& attempt_delivers,
    const std::function<bool(NodeId)>& node_active) {
  M2M_CHECK(attempt_delivers != nullptr);
  M2M_CHECK(std::adjacent_find(heard.begin(), heard.end(),
                               std::greater_equal<>()) == heard.end())
      << "heard evidence must be sorted and duplicate-free";
  if (++observation_ == 0) {
    // The mark counter wrapped: clear the marks so none of them matches a
    // new round's.
    std::ranges::fill(heard_mark_, 0);
    observation_ = 1;
  }
  // Free evidence first: mark every monitored link whose monitor overheard
  // its neighbor during the round's data/ack traffic. A pair that is not a
  // topology link of its receiver carries no evidence.
  const NodeId node_count = topology_->node_count();
  for (const auto& [from, to] : heard) {
    if (to < 0 || to >= node_count) continue;
    const std::span<const NodeId> neighbors = topology_->neighbors(to);
    auto it = std::ranges::lower_bound(neighbors, from);
    if (it == neighbors.end() || *it != from) continue;
    heard_mark_[topology_->row_begin(to) + (it - neighbors.begin())] =
        observation_;
  }

  RoundReport report;
  for (NodeId monitor = 0; monitor < node_count; ++monitor) {
    if (node_active != nullptr && !node_active(monitor)) continue;
    const std::span<const NodeId> neighbors = topology_->neighbors(monitor);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      const NodeId neighbor = neighbors[i];
      const std::pair<NodeId, NodeId> link{monitor, neighbor};
      const size_t slot = topology_->row_begin(monitor) + i;
      int& missed = missed_[slot];
      bool evidence = heard_mark_[slot] == observation_;

      if (!evidence) {
        // Silent neighbor: run the explicit probe exchange — also on
        // suspected links, which is what makes readmission possible at
        // all. The monitor transmits probes until one gets through, then
        // the neighbor transmits replies until one gets through. Each leg
        // burns real transmissions, which the report charges.
        bool probe_received = false;
        for (int k = 1; k <= kProbeAttempts; ++k) {
          report.probe_transmissions += 1;
          if (attempt_delivers(monitor, neighbor, kProbeAttemptBase + k)) {
            probe_received = true;
            break;
          }
        }
        if (probe_received) {
          for (int k = 1; k <= kProbeAttempts; ++k) {
            report.probe_transmissions += 1;
            if (attempt_delivers(neighbor, monitor,
                                 kProbeReplyAttemptBase + k)) {
              evidence = true;
              break;
            }
          }
        }
        if (evidence) report.probe_confirmations += 1;
      }

      if (slot_suspected_[slot] != 0) {
        auto suspicion_it = suspected_.find(link);
        M2M_CHECK(suspicion_it != suspected_.end());
        // Suspected (possibly in probation): evidence advances probation,
        // silence resets it. Retraction requires `probation_rounds`
        // *consecutive* evidence rounds — the hysteresis that keeps a
        // flapping link quarantined.
        if (evidence) {
          missed = 0;
          if (++suspicion_it->second.probation_progress >=
              suspicion_it->second.required_probation) {
            suspected_.erase(suspicion_it);
            slot_suspected_[slot] = 0;
            ++revision_;
            if (options_.probation_backoff_factor > 1) {
              flaps_[link].last_readmit_round = round;
            }
            report.readmitted.push_back(
                SuspectedLink{monitor, neighbor, round});
          }
        } else {
          suspicion_it->second.probation_progress = 0;
          ++missed;
        }
        continue;
      }

      if (evidence) {
        missed = 0;
        continue;
      }
      if (++missed >= options_.suspicion_threshold) {
        suspected_.emplace(
            link, Suspicion{round, 0, EscalatedProbation(link, round)});
        slot_suspected_[slot] = 1;
        ++revision_;
        report.new_suspicions.push_back(
            SuspectedLink{monitor, neighbor, round});
      }
    }
  }
  return report;
}

std::vector<SuspectedLink> FailureDetector::suspicions() const {
  std::vector<SuspectedLink> out;
  out.reserve(suspected_.size());
  for (const auto& [link, suspicion] : suspected_) {
    out.push_back(
        SuspectedLink{link.first, link.second, suspicion.raised_round});
  }
  return out;
}

bool FailureDetector::Suspects(NodeId monitor, NodeId neighbor) const {
  return suspected_.contains({monitor, neighbor});
}

bool FailureDetector::InProbation(NodeId monitor, NodeId neighbor) const {
  auto it = suspected_.find({monitor, neighbor});
  return it != suspected_.end() && it->second.probation_progress > 0;
}

int FailureDetector::probation_link_count() const {
  int count = 0;
  for (const auto& [link, suspicion] : suspected_) {
    if (suspicion.probation_progress > 0) ++count;
  }
  return count;
}

int FailureDetector::missed_rounds(NodeId monitor, NodeId neighbor) const {
  if (monitor < 0 || monitor >= topology_->node_count()) return 0;
  const std::span<const NodeId> neighbors = topology_->neighbors(monitor);
  auto it = std::find(neighbors.begin(), neighbors.end(), neighbor);
  if (it == neighbors.end()) return 0;
  return missed_[topology_->row_begin(monitor) + (it - neighbors.begin())];
}

int FailureDetector::required_probation(NodeId monitor,
                                        NodeId neighbor) const {
  auto it = suspected_.find({monitor, neighbor});
  return it == suspected_.end() ? 0 : it->second.required_probation;
}

int FailureDetector::flap_count(NodeId monitor, NodeId neighbor) const {
  auto it = flaps_.find({monitor, neighbor});
  return it == flaps_.end() ? 0 : it->second.resuspicions;
}

}  // namespace m2m
