#ifndef M2M_LIFECYCLE_LIFECYCLE_H_
#define M2M_LIFECYCLE_LIFECYCLE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "agg/aggregate_function.h"
#include "common/ids.h"
#include "lifecycle/admission.h"
#include "lifecycle/catalog.h"
#include "obs/metrics.h"
#include "plan/consistency.h"
#include "plan/generation.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/path_system.h"
#include "sim/self_healing.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {

/// Knobs for the query lifecycle manager.
struct LifecycleOptions {
  PlannerOptions planner;
  AdmissionLimits limits;
};

/// Outcome of one lifecycle mutation. On rejection the decision carries the
/// typed reason and every other field reflects the *unchanged* state — the
/// catalog, plan, and images are exactly what they were before the call.
struct MutationResult {
  AdmissionDecision decision;
  /// Catalog version after the call (unchanged on rejection — and on
  /// deduplicated refcount traffic, which is immaterial by definition).
  int64_t catalog_version = 0;
  /// True when the request resolved to pure refcount bookkeeping: an exact
  /// resubmission acquired an existing query, or a retire released a hold
  /// other holders still reference. No plan state mutated; `replan`,
  /// `images_shipped`, and `delta_state_bytes` are all zero.
  bool deduplicated = false;
  /// Refcount of the touched query after the call (0 once retired).
  int refcount = 0;
  /// Incremental replan bookkeeping (zeros on rejection).
  UpdateStats replan;
  /// Corollary 1 accounting for admitted mutations: the predicted
  /// perturbation set for the workload delta, and the edges the plan
  /// actually changed on (always a subset — CHECKed at commit).
  std::vector<DirectedEdge> predicted_edges;
  std::vector<DirectedEdge> divergent_edges;
  /// Dissemination delta for admitted mutations: full images vs. 5-byte
  /// epoch bumps, and their total payload bytes.
  int images_shipped = 0;
  int bumps_shipped = 0;
  int64_t delta_state_bytes = 0;
};

/// Kind of one batched lifecycle request.
enum class MutationType : uint8_t {
  kAdmit,
  kRetire,
  kAddSource,
  kRemoveSource,
};

std::string ToString(MutationType type);

/// One lifecycle request, alone or inside a batch. `spec` is read for
/// kAdmit; `source` and `weight` for the source mutations.
struct MutationRequest {
  MutationType type = MutationType::kAdmit;
  NodeId destination = kInvalidNode;
  NodeId source = kInvalidNode;
  double weight = 1.0;
  FunctionSpec spec;

  static MutationRequest Admit(NodeId destination, FunctionSpec spec);
  static MutationRequest Retire(NodeId destination);
  static MutationRequest AddSource(NodeId destination, NodeId source,
                                   double weight);
  static MutationRequest RemoveSource(NodeId destination, NodeId source);
};

/// Typed per-request outcome inside a batch. Rejection purity holds
/// mid-batch exactly as it does standalone: a rejected request contributed
/// nothing to the committed candidate, and later requests in the same
/// batch were validated as if it never arrived.
struct MutationOutcome {
  AdmissionDecision decision;
  /// Pure refcount bookkeeping (see MutationResult::deduplicated).
  bool deduplicated = false;
  /// Refcount of the touched query after the batch applies (0 = retired).
  int refcount = 0;
};

/// Outcome of one committed batch.
struct BatchResult {
  /// One outcome per request, in request order.
  std::vector<MutationOutcome> outcomes;
  int accepted = 0;
  int rejected = 0;
  /// True iff the batch materially changed the catalog and committed
  /// through ONE replan + ONE consistency validation + ONE epoch bump
  /// (refcount-only batches commit without any of the three).
  bool committed = false;
  /// True when a multi-request batch's combined candidate tripped a budget
  /// gate and the batch degraded to sequential one-request application
  /// (identical semantics to unbatched replay; the amortization is lost,
  /// correctness is not). A one-request candidate that trips a budget is a
  /// plain rejection of that request.
  bool sequential_fallback = false;
  /// Aggregate replan / Corollary 1 / dissemination accounting for the
  /// whole batch (the single commit on the fast path; summed per-request
  /// accounting under sequential fallback).
  MutationResult commit;
};

/// The single-request view of a one-request batch: the request's
/// decision, dedup flag and refcount over the batch's commit accounting, or
/// a bare rejection (every other field zero) at the commit's catalog
/// version when the request was rejected.
MutationResult SingleResult(const MutationOutcome& outcome,
                            MutationResult commit);

/// The query lifecycle manager (QLM): owns the versioned query catalog at
/// the base station and serves runtime workload churn — AdmitQuery,
/// RetireQuery, AddSource / RemoveSource, and batched ApplyBatch — with
/// incremental Corollary 1 re-planning and typed admission control.
///
/// Every mutation (and every batch) runs one pipeline:
///   1. Structural validation against the current catalog (typed rejection,
///      nothing mutated). Within a batch, requests validate against the
///      evolving candidate, so a batch behaves exactly like its sequential
///      replay; a rejected request is skipped and poisons nothing.
///   2. Candidate build (PlanGeneration::Propose): the mutated catalog is
///      materialized as a workload and re-planned incrementally, once per
///      batch; the Theorem 1 and Corollary 1 checks are CHECKs, since a
///      violation is a planner bug, not an admissible outcome.
///   3. Admission control: the candidate plan is evaluated against the
///      Theorem 3 state bound, the TDMA slot budget, and the per-node
///      energy budget; violations reject with a typed reason and leave the
///      catalog and plan untouched. A multi-request batch whose combined
///      candidate trips a budget degrades to sequential one-request
///      application, so batched and unbatched replay of the same requests
///      always land on byte-identical state.
///   4. Commit (PlanGeneration::Adopt): the catalog versions forward, the
///      candidate becomes the live plan (compiled at plan epoch = catalog
///      version — a batch advances the version once per accepted material
///      request but opens only the FINAL version as an epoch), the per-node
///      image diff is the dissemination delta, and — when a self-healing
///      runtime is attached — the new workload is submitted once per commit
///      so the delta rides the epoch-versioned control plane.
///
/// A single mutation (AdmitQuery, RetireQuery, AddSource, RemoveSource,
/// Apply) is a one-request batch through the same pipeline; it only skips
/// the qlm.batch.* accounting, which counts ApplyBatch calls.
///
/// Cross-tenant dedup rides the same pipeline: queries are keyed by their
/// canonical (destination, source-set, function) form, an exact
/// resubmission is an idempotent refcount acquire (no replan, no epoch, no
/// version bump — provably zero plan-state mutation), and a retire only
/// drops the physical query once the last hold releases. One refcounted
/// tree serving N holders amortizes both the Theorem 3 state bound and the
/// dissemination traffic, which is the sharing the paper's many-to-many
/// formulation exists to exploit.
///
/// The QLM plans against the *deployment* topology: admission budgets are
/// capacity questions, answered against configured capacity rather than
/// transient failure beliefs. An attached runtime prunes believed-dead
/// sources itself, exactly as it does for its configured workload; the
/// only belief the QLM consults is the alive-source check (admitting a
/// query every source of which is believed dead would hand the runtime an
/// unservable task).
///
/// The catalog may drain to zero resident queries: retiring the last query
/// replans to the empty plan, disseminates retraction images to every node
/// that held state, and leaves an empty forest the executor and runtime
/// handle like any other epoch; a later admission replans from empty.
class QueryLifecycleManager {
 public:
  QueryLifecycleManager(const Topology& topology, const Workload& initial,
                        NodeId base_station,
                        const LifecycleOptions& options = {});

  /// Registers a new query for `destination` aggregating `spec`'s weight
  /// keys. The spec's weights need not be sorted; the catalog canonicalizes.
  /// Resubmitting a byte-identical (destination, source-set, function) spec
  /// is idempotent: the existing query's refcount bumps and no plan state
  /// mutates. A conflicting spec for a served destination still rejects
  /// with kDuplicateDestination.
  MutationResult AdmitQuery(NodeId destination, const FunctionSpec& spec);

  /// Drops one hold of `destination`'s query: a refcount release while
  /// other holders remain, the physical retirement (replan, retraction
  /// dissemination) once the last hold goes. Retiring the last resident
  /// query is legal and leaves an empty catalog.
  MutationResult RetireQuery(NodeId destination);

  /// Adds `source` to `destination`'s query.
  MutationResult AddSource(NodeId destination, NodeId source, double weight);

  /// Removes `source` from `destination`'s query; the query must keep at
  /// least one source (and, when a runtime is attached, at least one
  /// believed-alive source).
  MutationResult RemoveSource(NodeId destination, NodeId source);

  /// Applies one request of any type (the four calls above are this).
  MutationResult Apply(const MutationRequest& request);

  /// Applies a batch of requests as one catalog delta: requests validate
  /// in order against the evolving candidate (typed per-request outcomes;
  /// rejections poison nothing), then the accepted set commits with one
  /// replan + one epoch bump — the frontend's unit of amortization, since
  /// per-query replans are the single-query cost the many-to-many
  /// formulation exists to avoid paying N times. The batch lands on the
  /// same catalog, plan and images as applying its requests one by one;
  /// budget-contended batches degrade to exactly that.
  BatchResult ApplyBatch(const std::vector<MutationRequest>& requests);

  /// Attaches the self-healing runtime that should receive admitted
  /// workloads (SubmitWorkload on every commit). Pass nullptr to detach.
  void AttachRuntime(SelfHealingRuntime* runtime) { runtime_ = runtime; }

  /// Attaches a metrics registry; mutations then record qlm.* counters
  /// (admissions, rejections by reason, replans, batch amortization,
  /// dedup refcount traffic, replan edge reuse, dissemination bytes per
  /// delta) and catalog gauges. Pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* metrics);

  const QueryCatalog& catalog() const { return catalog_; }
  /// The live workload (the catalog, materialized).
  const Workload& workload() const { return workload_; }
  const GlobalPlan& plan() const { return compiled().plan(); }
  const CompiledPlan& compiled() const { return generation_.compiled(); }
  /// Current wire images per node, stamped with epoch = catalog version.
  const std::vector<std::vector<uint8_t>>& images() const {
    return generation_.images();
  }
  const PathSystem& paths() const { return paths_; }

 private:
  /// Pre-resolved qlm.* metric handles.
  struct MetricHandles {
    obs::MetricHandle admissions;
    obs::MetricHandle rejections;
    /// One per AdmissionReason rejection slug.
    std::vector<obs::MetricHandle> rejections_by_reason;
    obs::MetricHandle replans;
    obs::MetricHandle edges_reused;
    obs::MetricHandle edges_reoptimized;
    obs::MetricHandle images_shipped;
    obs::MetricHandle bumps_shipped;
    obs::MetricHandle delta_state_bytes;
    obs::MetricHandle catalog_size;
    obs::MetricHandle catalog_logical_size;
    obs::MetricHandle catalog_version;
    obs::MetricHandle batch_batches;
    obs::MetricHandle batch_requests;
    obs::MetricHandle batch_commits;
    obs::MetricHandle batch_fallbacks;
    obs::MetricHandle dedup_hits;
    obs::MetricHandle dedup_releases;
  };

  /// Validates `request` against `catalog` and, on acceptance, applies it.
  /// Holds ALL structural gates (including the believed-alive-source
  /// check), so every request type shares one rulebook.
  MutationOutcome ValidateAndApply(QueryCatalog& catalog,
                                   const MutationRequest& request) const;
  /// The pipeline for a non-empty request list, minus qlm.batch.*.
  BatchResult ApplyRequests(std::span<const MutationRequest> requests);
  /// Steps 2-4 of the pipeline for a structurally valid candidate.
  MutationResult Commit(QueryCatalog candidate);
  /// Budget-contended batch path: one one-request batch per request.
  BatchResult SequentialFallback(std::span<const MutationRequest> requests);
  bool BelievedDead(NodeId node) const;
  void RecordRejection(AdmissionReason reason);
  void RefreshCatalogGauges();

  const Topology* topology_;
  NodeId base_;
  LifecycleOptions options_;
  PathSystem paths_;
  QueryCatalog catalog_;
  Workload workload_;
  PlanGeneration generation_;
  SelfHealingRuntime* runtime_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  MetricHandles handles_;
};

}  // namespace m2m

#endif  // M2M_LIFECYCLE_LIFECYCLE_H_
