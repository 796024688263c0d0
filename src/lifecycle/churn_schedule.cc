#include "lifecycle/churn_schedule.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"

namespace m2m {

ChurnSchedule ChurnSchedule::Generate(
    const Topology& topology, const Workload& initial,
    const std::vector<NodeId>& forbidden_destinations,
    const ChurnScheduleOptions& options) {
  M2M_CHECK_GE(options.rounds, 2);
  M2M_CHECK_GE(options.sources_per_admission, 1);
  M2M_CHECK_LT(options.sources_per_admission, topology.node_count());
  M2M_CHECK_LE(options.weight_min, options.weight_max);

  const std::set<NodeId> forbidden(forbidden_destinations.begin(),
                                   forbidden_destinations.end());
  // Simulated catalog membership, assuming every prior event commits.
  std::map<NodeId, std::set<NodeId>> membership;
  for (const Task& task : initial.tasks) {
    membership.emplace(task.destination, std::set<NodeId>(
                                             task.sources.begin(),
                                             task.sources.end()));
  }

  Rng rng(options.seed);
  std::vector<MutationType> types;
  types.insert(types.end(), options.admissions, MutationType::kAdmit);
  types.insert(types.end(), options.retirements, MutationType::kRetire);
  types.insert(types.end(), options.source_adds, MutationType::kAddSource);
  types.insert(types.end(), options.source_removes,
               MutationType::kRemoveSource);
  rng.Shuffle(types);
  std::vector<int> rounds;
  rounds.reserve(types.size());
  for (size_t i = 0; i < types.size(); ++i) {
    rounds.push_back(
        static_cast<int>(rng.UniformRange(1, options.rounds - 1)));
  }
  std::sort(rounds.begin(), rounds.end());

  ChurnSchedule schedule;
  schedule.options_ = options;
  for (size_t i = 0; i < types.size(); ++i) {
    Rng event_rng = rng.Fork(static_cast<uint64_t>(i));
    ChurnEvent event;
    event.round = rounds[i];
    MutationRequest& request = event.request;
    request.type = types[i];
    switch (types[i]) {
      case MutationType::kAdmit: {
        std::vector<NodeId> candidates;
        for (NodeId n = 0; n < topology.node_count(); ++n) {
          if (!membership.contains(n) && !forbidden.contains(n)) {
            candidates.push_back(n);
          }
        }
        if (candidates.empty()) continue;
        request.destination = candidates[event_rng.UniformInt(
            static_cast<uint64_t>(candidates.size()))];
        std::vector<NodeId> pool;
        for (NodeId n = 0; n < topology.node_count(); ++n) {
          if (n != request.destination) pool.push_back(n);
        }
        event_rng.Shuffle(pool);
        pool.resize(options.sources_per_admission);
        std::sort(pool.begin(), pool.end());
        request.spec.kind = options.kind;
        for (NodeId source : pool) {
          request.spec.weights.emplace_back(
              source, event_rng.UniformDouble(options.weight_min,
                                              options.weight_max));
        }
        membership.emplace(request.destination,
                           std::set<NodeId>(pool.begin(), pool.end()));
        break;
      }
      case MutationType::kRetire: {
        // Draining to zero is legal at the manager, but keep two live
        // queries so a subsequent retirement slot still has a target (and
        // the steady-state experiments keep traffic to measure).
        if (membership.size() <= 2) continue;
        std::vector<NodeId> candidates;
        for (const auto& [destination, sources] : membership) {
          if (!forbidden.contains(destination)) {
            candidates.push_back(destination);
          }
        }
        if (candidates.empty()) continue;
        request.destination = candidates[event_rng.UniformInt(
            static_cast<uint64_t>(candidates.size()))];
        membership.erase(request.destination);
        break;
      }
      case MutationType::kAddSource: {
        std::vector<NodeId> candidates;
        for (const auto& [destination, sources] : membership) {
          if (static_cast<int>(sources.size()) + 1 <
              topology.node_count()) {
            candidates.push_back(destination);
          }
        }
        if (candidates.empty()) continue;
        request.destination = candidates[event_rng.UniformInt(
            static_cast<uint64_t>(candidates.size()))];
        std::set<NodeId>& sources = membership.at(request.destination);
        std::vector<NodeId> addable;
        for (NodeId n = 0; n < topology.node_count(); ++n) {
          if (n != request.destination && !sources.contains(n)) {
            addable.push_back(n);
          }
        }
        request.source = addable[event_rng.UniformInt(
            static_cast<uint64_t>(addable.size()))];
        request.weight = event_rng.UniformDouble(options.weight_min,
                                                 options.weight_max);
        sources.insert(request.source);
        break;
      }
      case MutationType::kRemoveSource: {
        std::vector<NodeId> candidates;
        for (const auto& [destination, sources] : membership) {
          if (sources.size() >= 2) candidates.push_back(destination);
        }
        if (candidates.empty()) continue;
        request.destination = candidates[event_rng.UniformInt(
            static_cast<uint64_t>(candidates.size()))];
        std::set<NodeId>& sources = membership.at(request.destination);
        std::vector<NodeId> removable(sources.begin(), sources.end());
        request.source = removable[event_rng.UniformInt(
            static_cast<uint64_t>(removable.size()))];
        sources.erase(request.source);
        break;
      }
    }
    schedule.events_.push_back(std::move(event));
  }
  return schedule;
}

std::vector<ChurnEvent> ChurnSchedule::EventsAt(int round) const {
  std::vector<ChurnEvent> at;
  for (const ChurnEvent& event : events_) {
    if (event.round == round) at.push_back(event);
  }
  return at;
}

std::vector<NodeId> ChurnSchedule::ReferencedNodes() const {
  std::set<NodeId> nodes;
  for (const ChurnEvent& event : events_) {
    const MutationRequest& request = event.request;
    if (request.destination != kInvalidNode) {
      nodes.insert(request.destination);
    }
    if (request.source != kInvalidNode) nodes.insert(request.source);
    for (const auto& [source, weight] : request.spec.weights) {
      nodes.insert(source);
    }
  }
  return {nodes.begin(), nodes.end()};
}

std::string ChurnSchedule::Describe() const {
  std::ostringstream os;
  for (const ChurnEvent& event : events_) {
    const MutationRequest& request = event.request;
    os << "round " << event.round << ": " << ToString(request.type)
       << " destination " << request.destination;
    if (request.type == MutationType::kAdmit) {
      os << " sources {";
      for (size_t i = 0; i < request.spec.weights.size(); ++i) {
        if (i > 0) os << ",";
        os << request.spec.weights[i].first;
      }
      os << "}";
    } else if (request.type == MutationType::kAddSource ||
               request.type == MutationType::kRemoveSource) {
      os << " source " << request.source;
    }
    os << "\n";
  }
  return os.str();
}

MutationResult ApplyChurnEvent(QueryLifecycleManager& manager,
                               const ChurnEvent& event) {
  return manager.Apply(event.request);
}

BatchResult ApplyChurnEventsBatched(QueryLifecycleManager& manager,
                                    const std::vector<ChurnEvent>& events) {
  std::vector<MutationRequest> requests;
  requests.reserve(events.size());
  for (const ChurnEvent& event : events) {
    requests.push_back(event.request);
  }
  return manager.ApplyBatch(requests);
}

}  // namespace m2m
