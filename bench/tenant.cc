// Multi-tenant frontend experiment: what do batched admissions and
// cross-tenant dedup buy at the base station? An open-loop arrival process
// (T tenants drawing admissions/retirements from a shared pool of canonical
// queries) sweeps the arrival rate (requests per batch window) and drives
// the SAME schedule through two admission pipelines: sequential (every
// request its own commit — one replan each) and batched (one frontend
// ApplyBatch per window — one replan for the whole window). Reports replans
// per admitted query and the dedup hit rate (overlapping tenants sharing
// one physical query) on stdout, which is deterministic; BENCH_tenant.json
// adds the wall-clock commit latency p50/p99 and admitted-queries
// throughput. Both pipelines must end byte-identical — the batch purity
// guarantee — and the bench CHECKs it.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "harness.h"
#include "lifecycle/lifecycle.h"
#include "lifecycle/tenant.h"
#include "sim/base_station.h"

namespace {

using namespace m2m;

/// One canonical query in the shared pool.
struct PoolQuery {
  NodeId destination = kInvalidNode;
  FunctionSpec spec;
};

/// One open-loop arrival: a tenant admitting or retiring a pool query.
struct Arrival {
  std::string tenant;
  bool retire = false;
  int pool_index = 0;
};

/// Latency/throughput/accounting for one (rate, pipeline) cell.
struct SweepStats {
  int requests = 0;
  int admitted = 0;
  int rejected = 0;
  int64_t replans = 0;
  int64_t dedup_hits = 0;
  std::vector<double> commit_us;
  double total_s = 0.0;
};

/// Builds the shared pool: `count` canonical queries over destinations no
/// initial query serves, each aggregating three nearby pool destinations.
std::vector<PoolQuery> BuildPool(const Topology& topology,
                                 const QueryCatalog& catalog, NodeId base,
                                 int count) {
  std::vector<NodeId> fresh;
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    if (n == base || catalog.Contains(n)) continue;
    fresh.push_back(n);
    if (static_cast<int>(fresh.size()) == count + 3) break;
  }
  M2M_CHECK_EQ(static_cast<int>(fresh.size()), count + 3);
  std::vector<PoolQuery> pool;
  for (int j = 0; j < count; ++j) {
    PoolQuery query;
    query.destination = fresh[static_cast<size_t>(j)];
    double weight = 1.0;
    for (int k = 1; k <= 3; ++k) {
      query.spec.kind = AggregateKind::kWeightedAverage;
      query.spec.weights.emplace_back(fresh[static_cast<size_t>(j + k)],
                                      weight);
      weight += 0.5;
    }
    pool.push_back(std::move(query));
  }
  return pool;
}

/// Generates the open-loop schedule: `windows` batch windows of `rate`
/// arrivals each. Tenants admit pool queries they do not yet hold and
/// retire ones they do (35% of the time), so the schedule is always valid
/// at the frontend while tenants keep overlapping on shared queries. Holds
/// admitted within the current window are never retired in it: the batched
/// frontend gates retires against pre-batch holds (a batch cannot retire
/// its own admit), and the sequential pipeline must see identical outcomes.
std::vector<std::vector<Arrival>> GenerateSchedule(
    const std::vector<std::string>& tenants, int pool_size, int windows,
    int rate, uint64_t seed) {
  Rng rng(seed);
  std::map<std::pair<std::string, int>, bool> held;
  std::vector<std::vector<Arrival>> schedule;
  for (int w = 0; w < windows; ++w) {
    std::vector<Arrival> window;
    std::map<std::pair<std::string, int>, bool> admitted_this_window;
    for (int i = 0; i < rate; ++i) {
      Arrival arrival;
      arrival.tenant =
          tenants[static_cast<size_t>(rng.UniformInt(tenants.size()))];
      std::vector<int> holding, free;
      for (int j = 0; j < pool_size; ++j) {
        if (held[{arrival.tenant, j}]) {
          if (!admitted_this_window[{arrival.tenant, j}]) holding.push_back(j);
        } else {
          free.push_back(j);
        }
      }
      if (holding.empty() && free.empty()) continue;
      const bool retire =
          !holding.empty() && (free.empty() || rng.Bernoulli(0.35));
      arrival.retire = retire;
      const std::vector<int>& candidates = retire ? holding : free;
      arrival.pool_index = candidates[static_cast<size_t>(
          rng.UniformInt(candidates.size()))];
      held[{arrival.tenant, arrival.pool_index}] = !retire;
      if (!retire) admitted_this_window[{arrival.tenant, arrival.pool_index}] = true;
      window.push_back(std::move(arrival));
    }
    schedule.push_back(std::move(window));
  }
  return schedule;
}

TenantRequest ToTenantRequest(const Arrival& arrival,
                              const std::vector<PoolQuery>& pool) {
  const PoolQuery& query = pool[static_cast<size_t>(arrival.pool_index)];
  TenantRequest request;
  request.tenant = arrival.tenant;
  request.request = arrival.retire
                        ? MutationRequest::Retire(query.destination)
                        : MutationRequest::Admit(query.destination, query.spec);
  return request;
}

/// Drives one pipeline over the schedule. `batched` commits each window as
/// ONE frontend batch; otherwise every arrival is its own single-request
/// commit. Returns the stats and leaves the manager at the final catalog.
SweepStats RunPipeline(QueryLifecycleManager& manager,
                       const std::vector<std::string>& tenants,
                       const std::vector<PoolQuery>& pool,
                       const std::vector<std::vector<Arrival>>& schedule,
                       bool batched, obs::MetricsRegistry& metrics) {
  manager.set_metrics(&metrics);
  MultiTenantFrontend frontend(&manager);
  frontend.set_metrics(&metrics);
  for (const std::string& tenant : tenants) frontend.RegisterTenant(tenant);

  const int64_t replans_before = metrics.Total("qlm.replans");
  const int64_t dedup_before = metrics.Total("qlm.dedup.hits");
  SweepStats stats;
  const auto run_start = std::chrono::steady_clock::now();
  for (const std::vector<Arrival>& window : schedule) {
    std::vector<TenantRequest> requests;
    for (const Arrival& arrival : window) {
      requests.push_back(ToTenantRequest(arrival, pool));
    }
    if (batched) {
      const auto start = std::chrono::steady_clock::now();
      FrontendBatchResult result = frontend.ApplyBatch(requests);
      const auto stop = std::chrono::steady_clock::now();
      stats.commit_us.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
      stats.requests += static_cast<int>(requests.size());
      stats.admitted += result.accepted;
      stats.rejected += result.rejected;
    } else {
      for (const TenantRequest& request : requests) {
        const auto start = std::chrono::steady_clock::now();
        FrontendBatchResult result = frontend.ApplyBatch({request});
        const auto stop = std::chrono::steady_clock::now();
        stats.commit_us.push_back(
            std::chrono::duration<double, std::micro>(stop - start).count());
        ++stats.requests;
        stats.admitted += result.accepted;
        stats.rejected += result.rejected;
      }
    }
  }
  const auto run_stop = std::chrono::steady_clock::now();
  stats.total_s =
      std::chrono::duration<double>(run_stop - run_start).count();
  stats.replans = metrics.Total("qlm.replans") - replans_before;
  stats.dedup_hits = metrics.Total("qlm.dedup.hits") - dedup_before;
  return stats;
}

}  // namespace

int main() {
  using namespace m2m;
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec workload_spec;
  workload_spec.destination_count = 5;
  workload_spec.sources_per_destination = 5;
  workload_spec.seed = 7100;
  Workload initial = GenerateWorkload(topology, workload_spec);
  NodeId base = PickBaseStation(topology);

  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  const int kPoolSize = 6;
  const int kWindows = 6;

  std::ofstream json("BENCH_tenant.json");
  json << "{\n  \"experiment\": \"tenant\",\n"
       << "  \"setup\": \"GDI topology, 5x5 seed workload; 4 tenants, "
          "shared pool of 6 canonical queries; open-loop arrival sweep "
          "(requests per batch window); sequential = one commit per "
          "request, batched = one frontend batch per window; both pipelines "
          "CHECKed byte-identical\",\n"
       << "  \"rows\": [\n";

  Table table({"rate", "pipeline", "requests", "admitted", "rejected",
               "dedup_hits", "replans", "replans_per_admit"});
  const std::vector<int> rates = {1, 2, 4, 8};
  bool first_row = true;
  for (int rate : rates) {
    QueryLifecycleManager probe(topology, initial, base);
    const std::vector<PoolQuery> pool =
        BuildPool(topology, probe.catalog(), base, kPoolSize);
    const std::vector<std::vector<Arrival>> schedule = GenerateSchedule(
        tenants, kPoolSize, kWindows, rate, 7200 + static_cast<uint64_t>(rate));

    QueryLifecycleManager sequential_manager(topology, initial, base);
    QueryLifecycleManager batched_manager(topology, initial, base);
    obs::MetricsRegistry sequential_metrics, batched_metrics;
    const SweepStats sequential =
        RunPipeline(sequential_manager, tenants, pool, schedule,
                    /*batched=*/false, sequential_metrics);
    const SweepStats batch = RunPipeline(batched_manager, tenants, pool,
                                         schedule, /*batched=*/true,
                                         batched_metrics);

    // Batch purity: one commit per window must land on the same catalog
    // (and therefore plan) as one commit per request.
    M2M_CHECK(sequential_manager.catalog() == batched_manager.catalog());
    M2M_CHECK_EQ(sequential.admitted, batch.admitted);
    M2M_CHECK_EQ(sequential.dedup_hits, batch.dedup_hits);

    for (const bool batched : {false, true}) {
      const SweepStats& stats = batched ? batch : sequential;
      const std::string pipeline = batched ? "batched" : "sequential";
      const double p50 = Percentile(stats.commit_us, 50.0);
      const double p99 = Percentile(stats.commit_us, 99.0);
      const double replans_per_admit =
          stats.admitted == 0 ? 0.0
                              : static_cast<double>(stats.replans) /
                                    static_cast<double>(stats.admitted);
      const double admits_per_s =
          stats.total_s <= 0.0
              ? 0.0
              : static_cast<double>(stats.admitted) / stats.total_s;
      table.AddRow({std::to_string(rate), pipeline,
                    std::to_string(stats.requests),
                    std::to_string(stats.admitted),
                    std::to_string(stats.rejected),
                    std::to_string(stats.dedup_hits),
                    std::to_string(stats.replans),
                    Table::Num(replans_per_admit, 2)});
      json << (first_row ? "" : ",\n") << "    {\"rate\": " << rate
           << ", \"pipeline\": \"" << pipeline
           << "\", \"requests\": " << stats.requests
           << ", \"admitted\": " << stats.admitted
           << ", \"rejected\": " << stats.rejected
           << ", \"dedup_hits\": " << stats.dedup_hits
           << ", \"replans\": " << stats.replans
           << ", \"replans_per_admit\": " << replans_per_admit
           << ", \"commit_p50_us\": " << p50
           << ", \"commit_p99_us\": " << p99
           << ", \"admits_per_s\": " << admits_per_s << "}";
      first_row = false;
    }
  }
  json << "\n  ]\n}\n";

  bench::EmitTable(
      "tenant_arrival_rate",
      "GDI topology; open-loop multi-tenant arrival sweep through the "
      "base-station frontend; sequential vs batched admission pipelines "
      "(CHECKed byte-identical); replan amortization, cross-tenant dedup "
      "hit rate; BENCH_tenant.json adds wall-clock commit latency p50/p99 "
      "and admits/s",
      table);
  return 0;
}
