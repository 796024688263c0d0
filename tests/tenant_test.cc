#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "fault_test_util.h"
#include "lifecycle/admission.h"
#include "lifecycle/catalog.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/tenant.h"
#include "obs/metrics.h"
#include "plan/consistency.h"
#include "plan/serialization.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using fault_test::DefaultWorkload;

FunctionSpec SpecOver(const std::vector<NodeId>& sources) {
  FunctionSpec spec;
  spec.kind = AggregateKind::kWeightedAverage;
  double weight = 1.0;
  for (NodeId source : sources) {
    spec.weights.emplace_back(source, weight);
    weight += 0.25;
  }
  return spec;
}

/// The first `count` destinations no query serves (excluding the base).
std::vector<NodeId> UnservedDestinations(const Topology& topology,
                                         const QueryCatalog& catalog,
                                         NodeId base, int count) {
  std::vector<NodeId> unserved;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (n != base && !catalog.Contains(n)) {
      unserved.push_back(n);
      if (static_cast<int>(unserved.size()) == count) break;
    }
  }
  M2M_CHECK_EQ(static_cast<int>(unserved.size()), count);
  return unserved;
}

class TenantFrontendTest : public ::testing::Test {
 protected:
  TenantFrontendTest()
      : topology_(MakeGreatDuckIslandLike()),
        initial_(DefaultWorkload(topology_, 41)),
        base_(PickBaseStation(topology_)) {}

  Topology topology_;
  Workload initial_;
  NodeId base_;
};

// --- The tentpole acceptance: a batch admitting K queries from multiple
// tenants commits with EXACTLY one replan and one epoch bump, asserted
// through the qlm.* metrics, and the compiled epoch tracks the final
// catalog version.
TEST_F(TenantFrontendTest, BatchedAdmissionsCommitWithOneReplanAndEpoch) {
  obs::MetricsRegistry metrics;
  QueryLifecycleManager manager(topology_, initial_, base_);
  manager.set_metrics(&metrics);
  MultiTenantFrontend frontend(&manager);
  frontend.set_metrics(&metrics);
  frontend.RegisterTenant("alpha");
  frontend.RegisterTenant("beta");

  std::vector<NodeId> fresh =
      UnservedDestinations(topology_, manager.catalog(), base_, 4);
  FrontendBatchResult result = frontend.ApplyBatch({
      {"alpha",
       MutationRequest::Admit(fresh[0], SpecOver({fresh[1], fresh[2]}))},
      {"alpha",
       MutationRequest::Admit(fresh[1], SpecOver({fresh[0], fresh[3]}))},
      {"beta",
       MutationRequest::Admit(fresh[2], SpecOver({fresh[0], fresh[1]}))},
      {"beta",
       MutationRequest::Admit(fresh[3], SpecOver({fresh[1], fresh[2]}))},
  });

  EXPECT_EQ(result.accepted, 4);
  EXPECT_EQ(result.rejected, 0);
  EXPECT_TRUE(result.committed);
  EXPECT_FALSE(result.sequential_fallback);
  for (const MutationOutcome& outcome : result.outcomes) {
    EXPECT_TRUE(outcome.decision.admitted);
    EXPECT_FALSE(outcome.deduplicated);
    EXPECT_EQ(outcome.refcount, 1);
  }

  // K admissions, ONE replan, ONE epoch transition.
  EXPECT_EQ(metrics.Total("qlm.admissions"), 4);
  EXPECT_EQ(metrics.Total("qlm.replans"), 1);
  EXPECT_EQ(metrics.Total("qlm.batch.batches"), 1);
  EXPECT_EQ(metrics.Total("qlm.batch.requests"), 4);
  EXPECT_EQ(metrics.Total("qlm.batch.commits"), 1);
  EXPECT_EQ(metrics.Total("qlm.batch.fallbacks"), 0);
  // The catalog versioned once per accepted mutation (sequential
  // equivalence) but only the FINAL version opened as a plan epoch.
  EXPECT_EQ(manager.catalog().version(), 4);
  EXPECT_EQ(manager.compiled().plan_epoch(), 4u);
  EXPECT_GT(result.commit.images_shipped + result.commit.bumps_shipped, 0);
  EXPECT_EQ(frontend.TotalHolds("alpha"), 2);
  EXPECT_EQ(frontend.TotalHolds("beta"), 2);
}

// --- Mid-batch rejection purity: rejected requests are typed, contribute
// nothing to the commit, and later requests behave as if the rejected one
// never arrived. The committed state is byte-identical to applying only
// the accepted requests.
TEST_F(TenantFrontendTest, MidBatchRejectionsArePureAndTyped) {
  QueryLifecycleManager manager(topology_, initial_, base_);
  MultiTenantFrontend frontend(&manager);
  frontend.RegisterTenant("alpha");

  NodeId served = manager.catalog().queries().begin()->first;
  FunctionSpec served_spec = manager.catalog().Get(served).spec;
  std::vector<NodeId> fresh =
      UnservedDestinations(topology_, manager.catalog(), base_, 3);
  FunctionSpec conflicting = SpecOver({fresh[1], fresh[2]});

  FrontendBatchResult result = frontend.ApplyBatch({
      {"alpha",
       MutationRequest::Admit(fresh[0], SpecOver({fresh[1], fresh[2]}))},
      // kDuplicateDestination
      {"alpha", MutationRequest::Admit(served, conflicting)},
      // Not held -> kUnknownDestination
      {"alpha", MutationRequest::Retire(served)},
      // kTenantUnknown
      {"ghost", MutationRequest::Admit(fresh[1], SpecOver({fresh[0]}))},
      {"alpha",
       MutationRequest::Admit(fresh[2], SpecOver({fresh[0], fresh[1]}))},
  });

  ASSERT_EQ(result.outcomes.size(), 5u);
  EXPECT_TRUE(result.outcomes[0].decision.admitted);
  EXPECT_EQ(result.outcomes[1].decision.reason,
            AdmissionReason::kDuplicateDestination);
  EXPECT_EQ(result.outcomes[2].decision.reason,
            AdmissionReason::kUnknownDestination);
  EXPECT_EQ(result.outcomes[3].decision.reason,
            AdmissionReason::kTenantUnknown);
  EXPECT_TRUE(result.outcomes[4].decision.admitted);
  EXPECT_EQ(result.accepted, 2);
  EXPECT_EQ(result.rejected, 3);
  EXPECT_EQ(result.tenant_rejected, 2);

  // The rejected duplicate changed nothing about the served query, and the
  // committed bytes equal a manager that only ever saw the accepted two.
  EXPECT_TRUE(
      SpecsEquivalent(manager.catalog().Get(served).spec, served_spec));
  QueryLifecycleManager oracle(topology_, initial_, base_);
  ASSERT_TRUE(oracle.AdmitQuery(fresh[0], SpecOver({fresh[1], fresh[2]}))
                  .decision.admitted);
  ASSERT_TRUE(oracle.AdmitQuery(fresh[2], SpecOver({fresh[0], fresh[1]}))
                  .decision.admitted);
  EXPECT_EQ(manager.catalog(), oracle.catalog());
  EXPECT_EQ(manager.images(), oracle.images());
}

// --- Tenant policy gates: unknown tenants, QoS quotas (including
// within-batch simulated residency), and the exclusive-hold rule for
// source mutations on shared queries.
TEST_F(TenantFrontendTest, QuotaUnknownAndSharedGatesAreTyped) {
  obs::MetricsRegistry metrics;
  QueryLifecycleManager manager(topology_, initial_, base_);
  MultiTenantFrontend frontend(&manager);
  frontend.set_metrics(&metrics);
  QosClass small_quota;
  small_quota.max_resident_queries = 2;
  small_quota.max_sources_per_query = 3;
  frontend.RegisterTenant("alpha", small_quota);
  frontend.RegisterTenant("beta");

  const int64_t version_before = manager.catalog().version();
  MutationResult ghost =
      frontend.AdmitQuery("ghost", 5, SpecOver({0, 1}));
  EXPECT_FALSE(ghost.decision.admitted);
  EXPECT_EQ(ghost.decision.reason, AdmissionReason::kTenantUnknown);
  EXPECT_EQ(manager.catalog().version(), version_before);
  EXPECT_EQ(metrics.Total("tenant.rejections.tenant_unknown"), 1);

  std::vector<NodeId> fresh =
      UnservedDestinations(topology_, manager.catalog(), base_, 4);
  // A query wider than the per-query quota.
  MutationResult wide = frontend.AdmitQuery(
      "alpha", fresh[0], SpecOver({fresh[1], fresh[2], fresh[3], base_}));
  EXPECT_FALSE(wide.decision.admitted);
  EXPECT_EQ(wide.decision.reason, AdmissionReason::kTenantQuota);

  // Residency quota, including the within-batch simulated count: a batch
  // of three admits under quota 2 must reject exactly the third.
  FrontendBatchResult burst = frontend.ApplyBatch({
      {"alpha",
       MutationRequest::Admit(fresh[0], SpecOver({fresh[1], fresh[2]}))},
      {"alpha",
       MutationRequest::Admit(fresh[1], SpecOver({fresh[0], fresh[2]}))},
      {"alpha",
       MutationRequest::Admit(fresh[2], SpecOver({fresh[0], fresh[1]}))},
  });
  EXPECT_TRUE(burst.outcomes[0].decision.admitted);
  EXPECT_TRUE(burst.outcomes[1].decision.admitted);
  EXPECT_EQ(burst.outcomes[2].decision.reason,
            AdmissionReason::kTenantQuota);
  EXPECT_EQ(metrics.Total("tenant.rejections.tenant_quota"), 2);
  EXPECT_EQ(frontend.TotalHolds("alpha"), 2);

  // Shared-query rule: beta deduplicates onto alpha's query; neither may
  // mutate its sources while the other still holds it.
  MutationResult shared =
      frontend.AdmitQuery("beta", fresh[0], SpecOver({fresh[1], fresh[2]}));
  EXPECT_TRUE(shared.decision.admitted);
  EXPECT_TRUE(shared.deduplicated);
  EXPECT_EQ(shared.refcount, 2);
  MutationResult blocked =
      frontend.AddSource("alpha", fresh[0], fresh[3], 1.0);
  EXPECT_FALSE(blocked.decision.admitted);
  EXPECT_EQ(blocked.decision.reason, AdmissionReason::kSharedQuery);
  EXPECT_EQ(metrics.Total("tenant.rejections.shared_query"), 1);

  // A tenant cannot retire a hold it does not own...
  MutationResult not_held = frontend.RetireQuery("beta", fresh[1]);
  EXPECT_FALSE(not_held.decision.admitted);
  EXPECT_EQ(not_held.decision.reason, AdmissionReason::kUnknownDestination);

  // ...and once beta releases its hold, alpha owns the query exclusively
  // and may mutate it.
  MutationResult release = frontend.RetireQuery("beta", fresh[0]);
  EXPECT_TRUE(release.decision.admitted);
  EXPECT_TRUE(release.deduplicated);
  MutationResult allowed =
      frontend.AddSource("alpha", fresh[0], fresh[3], 1.0);
  EXPECT_TRUE(allowed.decision.admitted);

  // Manager-level rejections leave holdings untouched: an admit for a
  // served destination with a CONFLICTING spec is not a dedup.
  NodeId served = manager.catalog().queries().begin()->first;
  int64_t holds_before = frontend.TotalHolds("beta");
  MutationResult conflict =
      frontend.AdmitQuery("beta", served, SpecOver({fresh[3]}));
  EXPECT_FALSE(conflict.decision.admitted);
  EXPECT_EQ(conflict.decision.reason,
            AdmissionReason::kDuplicateDestination);
  EXPECT_EQ(frontend.TotalHolds("beta"), holds_before);
}

// --- A retire never retracts a tree another tenant holds: the physical
// query (and every byte of plan state) survives until the LAST hold goes.
TEST_F(TenantFrontendTest, RetireNeverRetractsAQueryAnotherTenantHolds) {
  QueryLifecycleManager manager(topology_, initial_, base_);
  MultiTenantFrontend frontend(&manager);
  frontend.RegisterTenant("alpha");
  frontend.RegisterTenant("beta");

  std::vector<NodeId> fresh =
      UnservedDestinations(topology_, manager.catalog(), base_, 3);
  FunctionSpec spec = SpecOver({fresh[1], fresh[2]});
  ASSERT_TRUE(frontend.AdmitQuery("alpha", fresh[0], spec).decision.admitted);
  ASSERT_TRUE(frontend.AdmitQuery("beta", fresh[0], spec).decision.admitted);
  ASSERT_EQ(manager.catalog().RefCount(fresh[0]), 2);
  std::vector<std::vector<uint8_t>> held_images = manager.images();
  const int64_t held_version = manager.catalog().version();

  MutationResult release = frontend.RetireQuery("alpha", fresh[0]);
  EXPECT_TRUE(release.decision.admitted);
  EXPECT_TRUE(release.deduplicated);
  EXPECT_EQ(release.refcount, 1);
  EXPECT_TRUE(manager.catalog().Contains(fresh[0]));
  EXPECT_EQ(manager.images(), held_images);
  EXPECT_EQ(manager.catalog().version(), held_version);
  EXPECT_EQ(frontend.Holds("beta", fresh[0]), 1);

  MutationResult retract = frontend.RetireQuery("beta", fresh[0]);
  EXPECT_TRUE(retract.decision.admitted);
  EXPECT_FALSE(retract.deduplicated);
  EXPECT_EQ(retract.refcount, 0);
  EXPECT_FALSE(manager.catalog().Contains(fresh[0]));
  EXPECT_GT(retract.images_shipped, 0);
}

// --- The dedup differential (acceptance): N tenants admitting
// overlapping query sets produce a refcounted catalog whose material
// content, plan, and wire images are byte-identical to a canonical
// manager that admitted each distinct query exactly once — and the
// interleaved retires unwind back to the seed state without ever
// retracting a held tree. 20 seeds.
class TenantDedupDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TenantDedupDifferential, RefcountedCatalogEqualsCanonicalDeduped) {
  const uint64_t seed = GetParam();
  Topology topology = MakeGreatDuckIslandLike();
  Workload initial = DefaultWorkload(topology, seed * 23 + 9);
  NodeId base = PickBaseStation(topology);

  QueryLifecycleManager refcounted(topology, initial, base);
  MultiTenantFrontend frontend(&refcounted);
  const std::vector<std::string> tenants = {"alpha", "beta", "gamma"};
  for (const std::string& tenant : tenants) frontend.RegisterTenant(tenant);

  QueryLifecycleManager canonical(topology, initial, base);

  // A deterministic pool of distinct queries; tenant i holds pool query j
  // iff (i + j) % 2 == 0 or j == 0, so every query has >= 1 holder and
  // the first has three.
  Rng rng(seed * 101 + 13);
  std::vector<NodeId> fresh =
      UnservedDestinations(topology, refcounted.catalog(), base, 4);
  std::vector<FunctionSpec> pool;
  for (size_t j = 0; j < fresh.size(); ++j) {
    std::vector<NodeId> sources;
    for (NodeId n = 0; n < topology.node_count() &&
                       sources.size() < 3 + (j % 2);
         ++n) {
      if (n != fresh[j] && rng.UniformInt(3) != 0) sources.push_back(n);
    }
    pool.push_back(SpecOver(sources));
  }
  auto holds_query = [&](size_t tenant, size_t j) {
    return (tenant + j) % 2 == 0 || j == 0;
  };

  // Interleaved admissions: pool-major, tenants inner, so the FIRST
  // submission of each query is physical and the rest are dedup acquires.
  for (size_t j = 0; j < pool.size(); ++j) {
    int holders = 0;
    for (size_t t = 0; t < tenants.size(); ++t) {
      if (!holds_query(t, j)) continue;
      // Submit the weights in reversed order for odd holders: dedup must
      // key on the canonical form, not submission bytes.
      FunctionSpec submitted = pool[j];
      if (holders % 2 == 1) {
        std::reverse(submitted.weights.begin(), submitted.weights.end());
      }
      MutationResult result =
          frontend.AdmitQuery(tenants[t], fresh[j], submitted);
      ASSERT_TRUE(result.decision.admitted)
          << "seed " << seed << ": " << result.decision.detail;
      EXPECT_EQ(result.deduplicated, holders > 0) << "seed " << seed;
      ++holders;
      EXPECT_EQ(result.refcount, holders);
    }
    ASSERT_TRUE(canonical.AdmitQuery(fresh[j], pool[j]).decision.admitted)
        << "seed " << seed;
  }

  // Byte-identical material state: content, version, plan, wire images.
  EXPECT_EQ(refcounted.catalog().version(), canonical.catalog().version());
  EXPECT_EQ(refcounted.images(), canonical.images()) << "seed " << seed;
  EXPECT_TRUE(
      FindPlanDivergence(refcounted.plan(), canonical.plan()).empty())
      << "seed " << seed;
  ASSERT_EQ(refcounted.catalog().size(), canonical.catalog().size());
  for (const auto& [destination, query] : canonical.catalog().queries()) {
    ASSERT_TRUE(refcounted.catalog().Contains(destination));
    EXPECT_TRUE(SpecsEquivalent(
        refcounted.catalog().Get(destination).spec, query.spec));
  }
  for (size_t j = 0; j < pool.size(); ++j) {
    int holders = 0;
    for (size_t t = 0; t < tenants.size(); ++t) {
      holders += holds_query(t, j) ? 1 : 0;
    }
    EXPECT_EQ(refcounted.catalog().RefCount(fresh[j]), holders);
    EXPECT_EQ(frontend.HoldsAcrossTenants(fresh[j]), holders);
  }

  // Interleaved retires, tenant-major: a query stays resident — with
  // byte-identical images — until its LAST holder retires, and the last
  // retire retracts it. The canonical manager retires each query at that
  // final moment; the two stay byte-identical the whole way down.
  for (size_t t = 0; t < tenants.size(); ++t) {
    for (size_t j = 0; j < pool.size(); ++j) {
      if (!holds_query(t, j)) continue;
      const int refcount_before = refcounted.catalog().RefCount(fresh[j]);
      std::vector<std::vector<uint8_t>> images_before = refcounted.images();
      MutationResult result = frontend.RetireQuery(tenants[t], fresh[j]);
      ASSERT_TRUE(result.decision.admitted) << "seed " << seed;
      if (refcount_before > 1) {
        EXPECT_TRUE(result.deduplicated);
        EXPECT_TRUE(refcounted.catalog().Contains(fresh[j]));
        EXPECT_EQ(refcounted.images(), images_before)
            << "seed " << seed << ": releasing a shared hold moved bytes";
      } else {
        EXPECT_FALSE(result.deduplicated);
        EXPECT_FALSE(refcounted.catalog().Contains(fresh[j]));
        ASSERT_TRUE(canonical.RetireQuery(fresh[j]).decision.admitted);
        EXPECT_EQ(refcounted.images(), canonical.images())
            << "seed " << seed;
      }
    }
  }

  // Everything unwound to the seed queries, byte-for-byte.
  EXPECT_EQ(refcounted.catalog().size(),
            static_cast<int>(initial.tasks.size()));
  EXPECT_EQ(refcounted.catalog().version(), canonical.catalog().version());
  EXPECT_EQ(refcounted.images(), canonical.images()) << "seed " << seed;
  for (const std::string& tenant : tenants) {
    EXPECT_EQ(frontend.TotalHolds(tenant), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(TwentySeeds, TenantDedupDifferential,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace m2m
