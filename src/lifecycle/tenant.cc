#include "lifecycle/tenant.h"

#include <sstream>
#include <utility>

#include "common/check.h"
#include "lifecycle/catalog.h"

namespace m2m {

MultiTenantFrontend::MultiTenantFrontend(QueryLifecycleManager* manager)
    : manager_(manager) {
  M2M_CHECK(manager_ != nullptr);
}

void MultiTenantFrontend::RegisterTenant(const std::string& tenant,
                                         const QosClass& qos) {
  M2M_CHECK(!tenant.empty()) << "tenant name must be non-empty";
  TenantState& state = tenants_[tenant];
  state.qos = qos;
  if (metrics_ != nullptr && !state.holds_gauge.valid()) {
    state.holds_gauge = metrics_->Gauge("tenant.holds." + tenant);
    RefreshHoldsGauge(tenant);
  }
}

int MultiTenantFrontend::Holds(const std::string& tenant,
                               NodeId destination) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  auto hold = it->second.holds.find(destination);
  return hold == it->second.holds.end() ? 0 : hold->second;
}

int64_t MultiTenantFrontend::TotalHolds(const std::string& tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return 0;
  int64_t total = 0;
  for (const auto& [destination, holds] : it->second.holds) total += holds;
  return total;
}

int MultiTenantFrontend::HoldsAcrossTenants(NodeId destination) const {
  int total = 0;
  for (const auto& [name, state] : tenants_) {
    auto hold = state.holds.find(destination);
    if (hold != state.holds.end()) total += hold->second;
  }
  return total;
}

void MultiTenantFrontend::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  handles_.batches = metrics_->Counter("tenant.batches");
  handles_.requests = metrics_->Counter("tenant.requests");
  handles_.rejections = metrics_->Counter("tenant.rejections");
  handles_.reject_unknown =
      metrics_->Counter("tenant.rejections.tenant_unknown");
  handles_.reject_quota = metrics_->Counter("tenant.rejections.tenant_quota");
  handles_.reject_shared =
      metrics_->Counter("tenant.rejections.shared_query");
  for (auto& [name, state] : tenants_) {
    if (!state.holds_gauge.valid()) {
      state.holds_gauge = metrics_->Gauge("tenant.holds." + name);
    }
    RefreshHoldsGauge(name);
  }
}

void MultiTenantFrontend::RefreshHoldsGauge(const std::string& tenant) {
  if (metrics_ == nullptr) return;
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || !it->second.holds_gauge.valid()) return;
  metrics_->Set(it->second.holds_gauge, TotalHolds(tenant));
}

FrontendBatchResult MultiTenantFrontend::ApplyBatch(
    const std::vector<TenantRequest>& requests) {
  FrontendBatchResult result;
  result.outcomes.resize(requests.size());
  if (metrics_ != nullptr) {
    metrics_->Add(handles_.batches, 1);
    metrics_->Add(handles_.requests, static_cast<int64_t>(requests.size()));
  }

  // Tenant gates, evaluated against staged within-batch state so a batch
  // behaves like its own sequential replay at the tenant level too.
  std::map<std::string, int64_t> staged_resident;
  std::map<std::pair<std::string, NodeId>, int> staged_holds;
  std::vector<int> forwarded_index(requests.size(), -1);
  std::vector<MutationRequest> forwarded;
  for (size_t i = 0; i < requests.size(); ++i) {
    const TenantRequest& tr = requests[i];
    auto tenant_it = tenants_.find(tr.tenant);
    if (tenant_it == tenants_.end()) {
      std::ostringstream detail;
      detail << "tenant \"" << tr.tenant << "\" is not registered";
      result.outcomes[i].decision = AdmissionDecision::Reject(
          AdmissionReason::kTenantUnknown, detail.str());
      continue;
    }
    const QosClass& qos = tenant_it->second.qos;
    switch (tr.request.type) {
      case MutationType::kAdmit: {
        int64_t& resident =
            staged_resident.try_emplace(tr.tenant, TotalHolds(tr.tenant))
                .first->second;
        if (qos.max_resident_queries > 0 &&
            resident + 1 > qos.max_resident_queries) {
          std::ostringstream detail;
          detail << "tenant \"" << tr.tenant << "\" would hold "
                 << resident + 1 << " queries > quota "
                 << qos.max_resident_queries;
          result.outcomes[i].decision = AdmissionDecision::Reject(
              AdmissionReason::kTenantQuota, detail.str());
          continue;
        }
        if (qos.max_sources_per_query > 0 &&
            static_cast<int>(tr.request.spec.weights.size()) >
                qos.max_sources_per_query) {
          std::ostringstream detail;
          detail << "query for destination " << tr.request.destination
                 << " aggregates " << tr.request.spec.weights.size()
                 << " sources > tenant \"" << tr.tenant << "\" quota "
                 << qos.max_sources_per_query;
          result.outcomes[i].decision = AdmissionDecision::Reject(
              AdmissionReason::kTenantQuota, detail.str());
          continue;
        }
        ++resident;
        break;
      }
      case MutationType::kRetire: {
        int& staged = staged_holds
                          .try_emplace({tr.tenant, tr.request.destination},
                                       Holds(tr.tenant,
                                             tr.request.destination))
                          .first->second;
        if (staged < 1) {
          std::ostringstream detail;
          detail << "tenant \"" << tr.tenant
                 << "\" holds no query for destination "
                 << tr.request.destination;
          result.outcomes[i].decision = AdmissionDecision::Reject(
              AdmissionReason::kUnknownDestination, detail.str());
          continue;
        }
        --staged;
        --staged_resident.try_emplace(tr.tenant, TotalHolds(tr.tenant))
              .first->second;
        break;
      }
      case MutationType::kAddSource:
      case MutationType::kRemoveSource: {
        // Mutating the physical query would rewrite what every co-holder's
        // query means; require an exclusive hold.
        const NodeId destination = tr.request.destination;
        if (manager_->catalog().Contains(destination) &&
            manager_->catalog().RefCount(destination) !=
                Holds(tr.tenant, destination)) {
          std::ostringstream detail;
          detail << "destination " << destination << "'s query has "
                 << manager_->catalog().RefCount(destination)
                 << " holds but tenant \"" << tr.tenant << "\" owns "
                 << Holds(tr.tenant, destination);
          result.outcomes[i].decision = AdmissionDecision::Reject(
              AdmissionReason::kSharedQuery, detail.str());
          continue;
        }
        break;
      }
    }
    forwarded_index[i] = static_cast<int>(forwarded.size());
    forwarded.push_back(tr.request);
  }

  // ONE manager batch for everything that passed the tenant gates.
  if (!forwarded.empty()) {
    BatchResult inner = manager_->ApplyBatch(forwarded);
    result.committed = inner.committed;
    result.sequential_fallback = inner.sequential_fallback;
    result.commit = std::move(inner.commit);
    for (size_t i = 0; i < requests.size(); ++i) {
      if (forwarded_index[i] < 0) continue;
      result.outcomes[i] = inner.outcomes[forwarded_index[i]];
    }
  } else {
    result.commit.catalog_version = manager_->catalog().version();
  }

  // Reconcile holdings from ACTUAL outcomes only.
  for (size_t i = 0; i < requests.size(); ++i) {
    const MutationOutcome& outcome = result.outcomes[i];
    if (forwarded_index[i] < 0) {
      ++result.rejected;
      ++result.tenant_rejected;
      if (metrics_ != nullptr) {
        metrics_->Add(handles_.rejections, 1);
        switch (outcome.decision.reason) {
          case AdmissionReason::kTenantUnknown:
            metrics_->Add(handles_.reject_unknown, 1);
            break;
          case AdmissionReason::kTenantQuota:
            metrics_->Add(handles_.reject_quota, 1);
            break;
          case AdmissionReason::kSharedQuery:
            metrics_->Add(handles_.reject_shared, 1);
            break;
          default:
            break;
        }
      }
      continue;
    }
    if (!outcome.decision.admitted) {
      ++result.rejected;
      continue;
    }
    ++result.accepted;
    const TenantRequest& tr = requests[i];
    TenantState& state = tenants_.at(tr.tenant);
    if (tr.request.type == MutationType::kAdmit) {
      ++state.holds[tr.request.destination];
      RefreshHoldsGauge(tr.tenant);
    } else if (tr.request.type == MutationType::kRetire) {
      auto hold = state.holds.find(tr.request.destination);
      M2M_CHECK(hold != state.holds.end() && hold->second >= 1)
          << "tenant \"" << tr.tenant
          << "\" retire outcome without a matching hold";
      if (--hold->second == 0) state.holds.erase(hold);
      RefreshHoldsGauge(tr.tenant);
    }
  }
  return result;
}

MutationResult MultiTenantFrontend::AdmitQuery(const std::string& tenant,
                                               NodeId destination,
                                               const FunctionSpec& spec) {
  FrontendBatchResult batch =
      ApplyBatch({{tenant, MutationRequest::Admit(destination, spec)}});
  return SingleResult(batch.outcomes[0], std::move(batch.commit));
}

MutationResult MultiTenantFrontend::RetireQuery(const std::string& tenant,
                                                NodeId destination) {
  FrontendBatchResult batch =
      ApplyBatch({{tenant, MutationRequest::Retire(destination)}});
  return SingleResult(batch.outcomes[0], std::move(batch.commit));
}

MutationResult MultiTenantFrontend::AddSource(const std::string& tenant,
                                              NodeId destination,
                                              NodeId source, double weight) {
  FrontendBatchResult batch = ApplyBatch(
      {{tenant, MutationRequest::AddSource(destination, source, weight)}});
  return SingleResult(batch.outcomes[0], std::move(batch.commit));
}

MutationResult MultiTenantFrontend::RemoveSource(const std::string& tenant,
                                                 NodeId destination,
                                                 NodeId source) {
  FrontendBatchResult batch = ApplyBatch(
      {{tenant, MutationRequest::RemoveSource(destination, source)}});
  return SingleResult(batch.outcomes[0], std::move(batch.commit));
}

}  // namespace m2m
