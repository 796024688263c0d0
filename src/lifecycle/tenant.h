#ifndef M2M_LIFECYCLE_TENANT_H_
#define M2M_LIFECYCLE_TENANT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lifecycle/lifecycle.h"
#include "obs/metrics.h"

namespace m2m {

/// Per-tenant QoS / quota class. Tenant quotas gate *logical* load — how
/// many query holds a tenant may carry and how wide each may be — before a
/// request ever reaches the lifecycle manager's physical gates (Theorem 3
/// state bound, TDMA slots, per-node energy). A value <= 0 means
/// unlimited.
struct QosClass {
  /// Maximum logical queries (holds) the tenant may have resident at once.
  int max_resident_queries = 0;
  /// Maximum sources a single admitted query may aggregate.
  int max_sources_per_query = 0;
};

/// One tenant-attributed lifecycle request.
struct TenantRequest {
  std::string tenant;
  MutationRequest request;
};

/// Outcome of one frontend batch: per-request outcomes in request order plus
/// the underlying manager commit accounting. Tenant-level rejections
/// (unknown tenant, quota, shared-query) are decided in the frontend and
/// never reach the manager; everything else carries the manager's typed
/// decision through unchanged.
struct FrontendBatchResult {
  std::vector<MutationOutcome> outcomes;
  int accepted = 0;
  int rejected = 0;
  /// Of `rejected`, how many the frontend rejected before forwarding.
  int tenant_rejected = 0;
  bool committed = false;
  bool sequential_fallback = false;
  MutationResult commit;
};

/// Multi-tenant base-station frontend over the QueryLifecycleManager:
/// admits concurrent tenants onto ONE physical query catalog with
/// cross-tenant dedup and per-tenant QoS quotas.
///
/// Holdings model: each tenant carries *holds* — logical admissions —
/// against physical queries keyed by their canonical (destination,
/// source-set, function) form. Two tenants admitting the same canonical
/// query share one physical query (one aggregation tree, one table image,
/// one slice of the Theorem 3 state budget); the manager's refcount for a
/// destination equals the sum of tenant holds on it. A tenant retiring its
/// hold releases a refcount; the physical query — and its in-network state
/// — is only retracted when the LAST hold anywhere goes.
///
/// Gating rules (evaluated in the frontend, before forwarding):
///   - Requests from unregistered tenants reject with kTenantUnknown.
///   - Admits are gated against the tenant's QosClass using the
///     within-batch simulated resident count, so a batch cannot overshoot
///     a quota that its own earlier requests consumed (kTenantQuota).
///   - Retires require the tenant to actually hold the destination's
///     query, net of retires staged earlier in the same batch. A tenant
///     can never release — let alone retract — a hold it does not own.
///   - Source mutations (add / remove) change the *physical* query, which
///     would silently rewrite what every co-holder's query means; they
///     therefore require an exclusive hold (the manager's refcount equals
///     this tenant's holds) and reject with kSharedQuery otherwise.
///
/// Holdings are updated from the manager's ACTUAL per-request outcomes,
/// never from intent: a request the manager rejects (budget, structural)
/// leaves the tenant's holdings untouched, so one tenant's failed admit
/// can never cascade into retracting state another tenant depends on.
class MultiTenantFrontend {
 public:
  explicit MultiTenantFrontend(QueryLifecycleManager* manager);

  /// Registers a tenant with its QoS class. Re-registering updates the
  /// quota in place without touching holdings.
  void RegisterTenant(const std::string& tenant, const QosClass& qos = {});

  /// Applies a batch of tenant-attributed requests (the concurrent
  /// frontend's unit of admission): tenant gates first (typed rejections,
  /// nothing forwarded), then ONE manager batch for everything that passed
  /// — one replan, one validation, one epoch bump — then holdings
  /// reconciliation from the actual outcomes.
  FrontendBatchResult ApplyBatch(const std::vector<TenantRequest>& requests);

  /// Single-request conveniences (a batch of one, mapped by SingleResult).
  MutationResult AdmitQuery(const std::string& tenant, NodeId destination,
                            const FunctionSpec& spec);
  MutationResult RetireQuery(const std::string& tenant, NodeId destination);
  MutationResult AddSource(const std::string& tenant, NodeId destination,
                           NodeId source, double weight);
  MutationResult RemoveSource(const std::string& tenant, NodeId destination,
                              NodeId source);

  /// Holds `tenant` has on `destination`'s query (0 when none).
  int Holds(const std::string& tenant, NodeId destination) const;
  /// Total logical queries `tenant` has resident (sum of its holds).
  int64_t TotalHolds(const std::string& tenant) const;
  /// Sum of every tenant's holds on `destination` — equals the manager's
  /// refcount for every frontend-managed (or adopted) query.
  int HoldsAcrossTenants(NodeId destination) const;

  /// Attaches a metrics registry; batches then record tenant.* counters
  /// (requests, batches, tenant-level rejections by reason) and a
  /// per-tenant resident-holds gauge. Pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* metrics);

  const QueryLifecycleManager& manager() const { return *manager_; }

 private:
  struct TenantState {
    QosClass qos;
    /// destination -> holds (absent = 0; erased when a hold count drains).
    std::map<NodeId, int> holds;
    obs::MetricHandle holds_gauge;
  };

  struct MetricHandles {
    obs::MetricHandle batches;
    obs::MetricHandle requests;
    obs::MetricHandle rejections;
    obs::MetricHandle reject_unknown;
    obs::MetricHandle reject_quota;
    obs::MetricHandle reject_shared;
  };

  void RefreshHoldsGauge(const std::string& tenant);

  QueryLifecycleManager* manager_;
  std::map<std::string, TenantState> tenants_;
  obs::MetricsRegistry* metrics_ = nullptr;
  MetricHandles handles_;
};

}  // namespace m2m

#endif  // M2M_LIFECYCLE_TENANT_H_
