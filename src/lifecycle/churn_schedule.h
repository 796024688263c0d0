#ifndef M2M_LIFECYCLE_CHURN_SCHEDULE_H_
#define M2M_LIFECYCLE_CHURN_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "agg/aggregate_function.h"
#include "common/ids.h"
#include "lifecycle/lifecycle.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {

/// One scheduled mutation (query arrival/departure churn): the lifecycle
/// request to apply at `round`.
struct ChurnEvent {
  int round = 0;
  MutationRequest request;
};

struct ChurnScheduleOptions {
  /// Rounds the schedule covers; events land in [1, rounds - 1].
  int rounds = 8;
  int admissions = 2;
  int retirements = 1;
  int source_adds = 2;
  int source_removes = 1;
  /// Sources drawn for each admitted query.
  int sources_per_admission = 3;
  AggregateKind kind = AggregateKind::kWeightedAverage;
  double weight_min = 0.5;
  double weight_max = 1.5;
  uint64_t seed = 1;
};

/// A reproducible schedule of query arrivals and departures, the workload
/// analog of FaultSchedule: deterministic in (topology, initial workload,
/// forbidden set, options), so churn experiments replay byte-identically.
///
/// Generation simulates catalog membership so every event is structurally
/// valid *if all prior events committed*: admissions pick unserved
/// destinations, retirements pick live queries, source mutations pick live
/// queries with room to mutate. Admission-control rejections at
/// application time (budget limits, dead sources) simply leave the catalog
/// unchanged — later events that assumed the mutation then draw their own
/// typed rejections, which is valid churn, not an error. Destinations in
/// `forbidden_destinations` are never admitted or retired. An event slot
/// with no valid target (e.g. a retirement when only one query is live) is
/// skipped deterministically.
class ChurnSchedule {
 public:
  static ChurnSchedule Generate(
      const Topology& topology, const Workload& initial,
      const std::vector<NodeId>& forbidden_destinations,
      const ChurnScheduleOptions& options);

  const ChurnScheduleOptions& options() const { return options_; }
  /// All events, ordered by round (application order within a round is
  /// list order).
  const std::vector<ChurnEvent>& events() const { return events_; }
  std::vector<ChurnEvent> EventsAt(int round) const;

  /// Every node any event references (destinations and sources),
  /// ascending. Fault schedules driven alongside churn typically protect
  /// these so a scheduled mutation never races a node death.
  std::vector<NodeId> ReferencedNodes() const;

  /// Human-readable event list (stable across runs; used in traces).
  std::string Describe() const;

 private:
  ChurnScheduleOptions options_;
  std::vector<ChurnEvent> events_;
};

/// Applies one scheduled event through the lifecycle manager.
MutationResult ApplyChurnEvent(QueryLifecycleManager& manager,
                               const ChurnEvent& event);

/// Applies a round's events as ONE lifecycle batch (one replan + one epoch
/// bump on the fast path) instead of one mutation per event. Guaranteed to
/// land on the same final catalog, plan, and wire images as sequential
/// ApplyChurnEvent replay of the same list — the batch validates requests
/// in order against the evolving candidate, and budget-contended batches
/// degrade to exact sequential application.
BatchResult ApplyChurnEventsBatched(QueryLifecycleManager& manager,
                                    const std::vector<ChurnEvent>& events);

}  // namespace m2m

#endif  // M2M_LIFECYCLE_CHURN_SCHEDULE_H_
