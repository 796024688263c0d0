#include "lifecycle/lifecycle.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "plan/dissemination.h"

namespace m2m {

namespace {

constexpr AdmissionReason kAllReasons[] = {
    AdmissionReason::kAdmitted,
    AdmissionReason::kDuplicateDestination,
    AdmissionReason::kUnknownDestination,
    AdmissionReason::kDuplicateSource,
    AdmissionReason::kUnknownSource,
    AdmissionReason::kEmptySourceSet,
    AdmissionReason::kInvalidNode,
    AdmissionReason::kNoAliveSources,
    AdmissionReason::kStateBound,
    AdmissionReason::kTdmaCapacity,
    AdmissionReason::kEnergyBudget,
    AdmissionReason::kBatteryLifetime,
    AdmissionReason::kTenantUnknown,
    AdmissionReason::kTenantQuota,
    AdmissionReason::kSharedQuery,
};

/// Position of `reason` in kAllReasons (the index of its rejection
/// counter), or the list's size when it is missing.
constexpr size_t ReasonSlot(AdmissionReason reason) {
  for (size_t i = 0; i < std::size(kAllReasons); ++i) {
    if (kAllReasons[i] == reason) return i;
  }
  return std::size(kAllReasons);
}

constexpr bool ListsEveryReason() {
  for (int r = 0; r <= static_cast<int>(AdmissionReason::kSharedQuery); ++r) {
    if (ReasonSlot(static_cast<AdmissionReason>(r)) ==
        std::size(kAllReasons)) {
      return false;
    }
  }
  return true;
}
static_assert(ListsEveryReason(),
              "kAllReasons must list every AdmissionReason");

MutationOutcome RejectOutcome(AdmissionReason reason, std::string detail) {
  MutationOutcome outcome;
  outcome.decision = AdmissionDecision::Reject(reason, std::move(detail));
  return outcome;
}

}  // namespace

std::string ToString(MutationType type) {
  switch (type) {
    case MutationType::kAdmit:
      return "admit";
    case MutationType::kRetire:
      return "retire";
    case MutationType::kAddSource:
      return "add_source";
    case MutationType::kRemoveSource:
      return "remove_source";
  }
  return "unknown";
}

MutationRequest MutationRequest::Admit(NodeId destination, FunctionSpec spec) {
  MutationRequest request;
  request.type = MutationType::kAdmit;
  request.destination = destination;
  request.spec = std::move(spec);
  return request;
}

MutationRequest MutationRequest::Retire(NodeId destination) {
  MutationRequest request;
  request.type = MutationType::kRetire;
  request.destination = destination;
  return request;
}

MutationRequest MutationRequest::AddSource(NodeId destination, NodeId source,
                                           double weight) {
  MutationRequest request;
  request.type = MutationType::kAddSource;
  request.destination = destination;
  request.source = source;
  request.weight = weight;
  return request;
}

MutationRequest MutationRequest::RemoveSource(NodeId destination,
                                              NodeId source) {
  MutationRequest request;
  request.type = MutationType::kRemoveSource;
  request.destination = destination;
  request.source = source;
  return request;
}

MutationResult SingleResult(const MutationOutcome& outcome,
                            MutationResult commit) {
  if (!outcome.decision.admitted) {
    MutationResult rejected;
    rejected.decision = outcome.decision;
    rejected.catalog_version = commit.catalog_version;
    return rejected;
  }
  commit.decision = outcome.decision;
  commit.deduplicated = outcome.deduplicated;
  commit.refcount = outcome.refcount;
  return commit;
}

QueryLifecycleManager::QueryLifecycleManager(const Topology& topology,
                                             const Workload& initial,
                                             NodeId base_station,
                                             const LifecycleOptions& options)
    : topology_(&topology),
      base_(base_station),
      options_(options),
      paths_(topology),
      catalog_(QueryCatalog::FromWorkload(initial)),
      // The live workload is the catalog's canonical materialization, so
      // every later delta diffs against catalog-derived bytes.
      workload_(catalog_.ToWorkload()),
      generation_(paths_, workload_.tasks, workload_.functions,
                  static_cast<uint32_t>(catalog_.version()),
                  options.planner) {
  M2M_CHECK(base_ >= 0 && base_ < topology.node_count());
  M2M_CHECK(!workload_.tasks.empty()) << "initial workload has no queries";
}

void QueryLifecycleManager::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  handles_.admissions = metrics_->Counter("qlm.admissions");
  handles_.rejections = metrics_->Counter("qlm.rejections");
  handles_.rejections_by_reason.clear();
  for (AdmissionReason reason : kAllReasons) {
    handles_.rejections_by_reason.push_back(
        metrics_->Counter("qlm.rejections." + ToString(reason)));
  }
  handles_.replans = metrics_->Counter("qlm.replans");
  handles_.edges_reused = metrics_->Counter("qlm.replan_edges_reused");
  handles_.edges_reoptimized =
      metrics_->Counter("qlm.replan_edges_reoptimized");
  handles_.images_shipped = metrics_->Counter("qlm.images_shipped");
  handles_.bumps_shipped = metrics_->Counter("qlm.bumps_shipped");
  handles_.delta_state_bytes = metrics_->Counter("qlm.delta_state_bytes");
  handles_.catalog_size = metrics_->Gauge("qlm.catalog_size");
  handles_.catalog_logical_size = metrics_->Gauge("qlm.catalog_logical_size");
  handles_.catalog_version = metrics_->Gauge("qlm.catalog_version");
  handles_.batch_batches = metrics_->Counter("qlm.batch.batches");
  handles_.batch_requests = metrics_->Counter("qlm.batch.requests");
  handles_.batch_commits = metrics_->Counter("qlm.batch.commits");
  handles_.batch_fallbacks = metrics_->Counter("qlm.batch.fallbacks");
  handles_.dedup_hits = metrics_->Counter("qlm.dedup.hits");
  handles_.dedup_releases = metrics_->Counter("qlm.dedup.releases");
  RefreshCatalogGauges();
}

bool QueryLifecycleManager::BelievedDead(NodeId node) const {
  return runtime_ != nullptr && runtime_->ledger().belief(node) ==
                                    SuspicionLedger::NodeBelief::kDead;
}

void QueryLifecycleManager::RecordRejection(AdmissionReason reason) {
  if (metrics_ == nullptr) return;
  metrics_->Add(handles_.rejections, 1);
  metrics_->Add(handles_.rejections_by_reason[ReasonSlot(reason)], 1);
}

void QueryLifecycleManager::RefreshCatalogGauges() {
  if (metrics_ == nullptr) return;
  metrics_->Set(handles_.catalog_size, catalog_.size());
  metrics_->Set(handles_.catalog_logical_size, catalog_.LogicalSize());
  metrics_->Set(handles_.catalog_version, catalog_.version());
}

MutationOutcome QueryLifecycleManager::ValidateAndApply(
    QueryCatalog& catalog, const MutationRequest& request) const {
  const NodeId destination = request.destination;
  switch (request.type) {
    case MutationType::kAdmit: {
      if (destination < 0 || destination >= topology_->node_count()) {
        std::ostringstream detail;
        detail << "destination " << destination << " outside the deployment";
        return RejectOutcome(AdmissionReason::kInvalidNode, detail.str());
      }
      if (catalog.Contains(destination)) {
        // Cross-tenant dedup: resubmitting the exact canonical
        // (destination, source-set, function) key is an idempotent
        // refcount acquire; only a *conflicting* spec is a duplicate.
        if (SpecsEquivalent(catalog.Get(destination).spec, request.spec)) {
          MutationOutcome outcome;
          outcome.decision = AdmissionDecision::Admit();
          outcome.deduplicated = true;
          outcome.refcount = catalog.Acquire(destination);
          return outcome;
        }
        std::ostringstream detail;
        detail << "destination " << destination << " already has a query";
        return RejectOutcome(AdmissionReason::kDuplicateDestination,
                             detail.str());
      }
      if (request.spec.weights.empty()) {
        return RejectOutcome(AdmissionReason::kEmptySourceSet,
                             "admission requires at least one source");
      }
      std::set<NodeId> seen;
      for (const auto& [source, weight] : request.spec.weights) {
        if (source < 0 || source >= topology_->node_count() ||
            source == destination) {
          std::ostringstream detail;
          detail << "source " << source << " invalid for destination "
                 << destination;
          return RejectOutcome(AdmissionReason::kInvalidNode, detail.str());
        }
        if (!seen.insert(source).second) {
          std::ostringstream detail;
          detail << "source " << source << " listed twice";
          return RejectOutcome(AdmissionReason::kDuplicateSource,
                               detail.str());
        }
      }
      if (BelievedDead(destination)) {
        std::ostringstream detail;
        detail << "destination " << destination << " is believed dead";
        return RejectOutcome(AdmissionReason::kInvalidNode, detail.str());
      }
      // An attached runtime prunes believed-dead sources before planning;
      // a query left with zero believed-alive sources would be unservable
      // (and trip the runtime's no-empty-task invariant).
      if (runtime_ != nullptr) {
        bool any_alive = false;
        for (const auto& [source, weight] : request.spec.weights) {
          any_alive = any_alive || !BelievedDead(source);
        }
        if (!any_alive) {
          std::ostringstream detail;
          detail << "every source of destination " << destination
                 << " is believed dead";
          return RejectOutcome(AdmissionReason::kNoAliveSources,
                               detail.str());
        }
      }
      QueryDefinition query;
      query.destination = destination;
      query.spec = request.spec;
      catalog.Admit(query);
      MutationOutcome outcome;
      outcome.decision = AdmissionDecision::Admit();
      outcome.refcount = 1;
      return outcome;
    }
    case MutationType::kRetire: {
      if (!catalog.Contains(destination)) {
        std::ostringstream detail;
        detail << "no query for destination " << destination;
        return RejectOutcome(AdmissionReason::kUnknownDestination,
                             detail.str());
      }
      if (catalog.RefCount(destination) > 1) {
        // Other holders remain: drop one hold, keep the physical query
        // (and its trees, tables, and wire images) untouched.
        MutationOutcome outcome;
        outcome.decision = AdmissionDecision::Admit();
        outcome.deduplicated = true;
        outcome.refcount = catalog.Release(destination);
        return outcome;
      }
      // Last hold: physical retirement. Retiring the final resident query
      // is legal — the catalog drains to zero and the empty plan
      // disseminates as retraction images.
      catalog.Retire(destination);
      MutationOutcome outcome;
      outcome.decision = AdmissionDecision::Admit();
      outcome.refcount = 0;
      return outcome;
    }
    case MutationType::kAddSource: {
      if (!catalog.Contains(destination)) {
        std::ostringstream detail;
        detail << "no query for destination " << destination;
        return RejectOutcome(AdmissionReason::kUnknownDestination,
                             detail.str());
      }
      const NodeId source = request.source;
      if (source < 0 || source >= topology_->node_count() ||
          source == destination) {
        std::ostringstream detail;
        detail << "source " << source << " invalid for destination "
               << destination;
        return RejectOutcome(AdmissionReason::kInvalidNode, detail.str());
      }
      if (catalog.Get(destination).HasSource(source)) {
        std::ostringstream detail;
        detail << "source " << source << " already feeds destination "
               << destination;
        return RejectOutcome(AdmissionReason::kDuplicateSource,
                             detail.str());
      }
      catalog.AddSource(destination, source, request.weight);
      MutationOutcome outcome;
      outcome.decision = AdmissionDecision::Admit();
      outcome.refcount = catalog.RefCount(destination);
      return outcome;
    }
    case MutationType::kRemoveSource: {
      if (!catalog.Contains(destination)) {
        std::ostringstream detail;
        detail << "no query for destination " << destination;
        return RejectOutcome(AdmissionReason::kUnknownDestination,
                             detail.str());
      }
      const NodeId source = request.source;
      const QueryDefinition& query = catalog.Get(destination);
      if (!query.HasSource(source)) {
        std::ostringstream detail;
        detail << "source " << source << " does not feed destination "
               << destination;
        return RejectOutcome(AdmissionReason::kUnknownSource, detail.str());
      }
      if (query.spec.weights.size() == 1) {
        std::ostringstream detail;
        detail << "source " << source << " is destination " << destination
               << "'s last source";
        return RejectOutcome(AdmissionReason::kEmptySourceSet, detail.str());
      }
      if (runtime_ != nullptr) {
        bool any_alive = false;
        for (const auto& [s, weight] : query.spec.weights) {
          any_alive = any_alive || (s != source && !BelievedDead(s));
        }
        if (!any_alive) {
          std::ostringstream detail;
          detail << "every source of destination " << destination
                 << " is believed dead";
          return RejectOutcome(AdmissionReason::kNoAliveSources,
                               detail.str());
        }
      }
      catalog.RemoveSource(destination, source);
      MutationOutcome outcome;
      outcome.decision = AdmissionDecision::Admit();
      outcome.refcount = catalog.RefCount(destination);
      return outcome;
    }
  }
  return RejectOutcome(AdmissionReason::kInvalidNode,
                       "unknown mutation type");
}

MutationResult QueryLifecycleManager::Apply(const MutationRequest& request) {
  BatchResult batch = ApplyRequests({&request, 1});
  return SingleResult(batch.outcomes[0], std::move(batch.commit));
}

MutationResult QueryLifecycleManager::AdmitQuery(NodeId destination,
                                                 const FunctionSpec& spec) {
  return Apply(MutationRequest::Admit(destination, spec));
}

MutationResult QueryLifecycleManager::RetireQuery(NodeId destination) {
  return Apply(MutationRequest::Retire(destination));
}

MutationResult QueryLifecycleManager::AddSource(NodeId destination,
                                                NodeId source,
                                                double weight) {
  return Apply(MutationRequest::AddSource(destination, source, weight));
}

MutationResult QueryLifecycleManager::RemoveSource(NodeId destination,
                                                   NodeId source) {
  return Apply(MutationRequest::RemoveSource(destination, source));
}

BatchResult QueryLifecycleManager::ApplyBatch(
    const std::vector<MutationRequest>& requests) {
  if (metrics_ != nullptr) {
    metrics_->Add(handles_.batch_batches, 1);
    metrics_->Add(handles_.batch_requests,
                  static_cast<int64_t>(requests.size()));
  }
  if (requests.empty()) {
    BatchResult batch;
    batch.commit.catalog_version = catalog_.version();
    return batch;
  }
  BatchResult batch = ApplyRequests(requests);
  if (metrics_ != nullptr) {
    if (batch.committed) metrics_->Add(handles_.batch_commits, 1);
    if (batch.sequential_fallback) metrics_->Add(handles_.batch_fallbacks, 1);
  }
  return batch;
}

BatchResult QueryLifecycleManager::ApplyRequests(
    std::span<const MutationRequest> requests) {
  // Validate every request, in order, against the evolving candidate — a
  // batch behaves exactly like its own sequential replay, and a rejected
  // request contributes nothing to what commits.
  BatchResult batch;
  const int64_t base_version = catalog_.version();
  QueryCatalog candidate = catalog_;
  batch.outcomes.reserve(requests.size());
  for (const MutationRequest& request : requests) {
    batch.outcomes.push_back(ValidateAndApply(candidate, request));
  }

  const bool material = candidate.version() != base_version;
  if (material) {
    // ONE replan + ONE consistency validation + ONE epoch bump for the
    // whole accepted set. The candidate's version already advanced once
    // per accepted material request (matching sequential replay), and the
    // single commit compiles at the FINAL version, so the resulting wire
    // images are byte-identical to the sequential end state.
    MutationResult commit = Commit(std::move(candidate));
    if (commit.decision.admitted) {
      batch.committed = true;
    } else if (requests.size() > 1) {
      // The *combined* candidate tripped an admission budget. Individual
      // requests may still fit: degrade to exact sequential application so
      // batched and unbatched replay always agree on the final state.
      return SequentialFallback(requests);
    } else {
      // A lone request's budget verdict is its own.
      batch.outcomes[0] = MutationOutcome{.decision = commit.decision};
    }
    batch.commit = std::move(commit);
  } else {
    // Refcount-only (or all-rejected) batch: adopt the candidate's
    // bookkeeping without replanning or opening an epoch.
    catalog_ = std::move(candidate);
    batch.commit.decision = AdmissionDecision::Admit();
    batch.commit.deduplicated = true;
    batch.commit.catalog_version = catalog_.version();
    RefreshCatalogGauges();
  }

  for (size_t i = 0; i < requests.size(); ++i) {
    const MutationOutcome& outcome = batch.outcomes[i];
    if (outcome.decision.admitted) {
      ++batch.accepted;
      if (metrics_ != nullptr) {
        metrics_->Add(handles_.admissions, 1);
        if (outcome.deduplicated) {
          metrics_->Add(requests[i].type == MutationType::kAdmit
                            ? handles_.dedup_hits
                            : handles_.dedup_releases,
                        1);
        }
      }
    } else {
      ++batch.rejected;
      RecordRejection(outcome.decision.reason);
    }
  }
  return batch;
}

BatchResult QueryLifecycleManager::SequentialFallback(
    std::span<const MutationRequest> requests) {
  BatchResult batch;
  batch.sequential_fallback = true;
  batch.commit.decision = AdmissionDecision::Admit();
  for (const MutationRequest& request : requests) {
    BatchResult one = ApplyRequests({&request, 1});
    if (one.accepted > 0) {
      ++batch.accepted;
      batch.commit.replan.edges_reused += one.commit.replan.edges_reused;
      batch.commit.replan.edges_reoptimized +=
          one.commit.replan.edges_reoptimized;
      batch.commit.images_shipped += one.commit.images_shipped;
      batch.commit.bumps_shipped += one.commit.bumps_shipped;
      batch.commit.delta_state_bytes += one.commit.delta_state_bytes;
    } else {
      ++batch.rejected;
    }
    batch.outcomes.push_back(one.outcomes[0]);
  }
  batch.commit.catalog_version = catalog_.version();
  return batch;
}

MutationResult QueryLifecycleManager::Commit(QueryCatalog candidate) {
  Workload candidate_workload = candidate.ToWorkload();

  // Plan epoch = catalog version. Draining to an empty workload replans to
  // the empty forest; re-admission replans back out of it.
  PlanGeneration::Proposal proposal = generation_.Propose(
      paths_, candidate_workload.tasks, candidate_workload.functions,
      static_cast<uint32_t>(candidate.version()));

  MutationResult result;
  result.decision =
      CheckPlanBudgets(proposal.compiled, candidate_workload.functions,
                       *topology_, options_.limits);
  if (!result.decision.admitted) {
    // The proposal is discarded wholesale; the live catalog, plan,
    // compiled tables, and images are untouched.
    result.catalog_version = catalog_.version();
    return result;
  }
  result.replan = proposal.stats;
  result.predicted_edges = std::move(proposal.predicted_edges);
  result.divergent_edges = std::move(proposal.divergent_edges);
  for (const NodeImageDelta& delta : generation_.Adopt(std::move(proposal))) {
    if (delta.ship_image) {
      ++result.images_shipped;
      result.delta_state_bytes +=
          static_cast<int64_t>(images()[delta.node].size());
    } else {
      ++result.bumps_shipped;
      result.delta_state_bytes += kEpochBumpPayloadBytes;
    }
  }

  catalog_ = std::move(candidate);
  workload_ = std::move(candidate_workload);
  result.catalog_version = catalog_.version();

  if (runtime_ != nullptr) {
    runtime_->SubmitWorkload(workload_);
  }
  if (metrics_ != nullptr) {
    metrics_->Add(handles_.replans, 1);
    metrics_->Add(handles_.edges_reused, result.replan.edges_reused);
    metrics_->Add(handles_.edges_reoptimized,
                  result.replan.edges_reoptimized);
    metrics_->Add(handles_.images_shipped, result.images_shipped);
    metrics_->Add(handles_.bumps_shipped, result.bumps_shipped);
    metrics_->Add(handles_.delta_state_bytes, result.delta_state_bytes);
    RefreshCatalogGauges();
  }
  return result;
}

}  // namespace m2m
