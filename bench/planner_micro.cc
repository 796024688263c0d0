// Microbenchmarks for the optimizer itself: single-edge vertex-cover
// solves, full plan construction, incremental update vs rebuild, path
// system and compilation costs; and for the costs that dominate a
// self-healing round and a data round: the channel's and the fault
// schedule's delivery queries, the failure detector's round and the
// byte-level lossy round. The *_Threads variants sweep the thread-pool
// width (Arg = worker threads) over the same fixture; `--threads N`
// additionally sets the pool width for every other benchmark (default 1 =
// serial).

#include <algorithm>
#include <memory>

#include <benchmark/benchmark.h>

#include "common/thread_pool.h"
#include "harness.h"
#include "lifecycle/catalog.h"
#include "lifecycle/lifecycle.h"
#include "runtime/channel.h"
#include "runtime/detector.h"
#include "runtime/network.h"
#include "sim/fault_schedule.h"

namespace {

using namespace m2m;

// Synthetic single-edge instance: u sources x v destinations, ~40% density.
BipartiteInstance SyntheticInstance(int u, int v, uint64_t seed) {
  Rng rng(seed);
  BipartiteInstance instance;
  for (int i = 0; i < u; ++i) {
    instance.sources.push_back(
        CoverVertex{i, PerturbedWeight(kRawUnitBytes, i, false, seed)});
  }
  for (int j = 0; j < v; ++j) {
    instance.destinations.push_back(
        CoverVertex{1000 + j, PerturbedWeight(8, 1000 + j, true, seed)});
  }
  for (int i = 0; i < u; ++i) {
    for (int j = 0; j < v; ++j) {
      if (rng.Bernoulli(0.4)) instance.edges.emplace_back(i, j);
    }
  }
  if (instance.edges.empty()) instance.edges.emplace_back(0, 0);
  return instance;
}

void BM_SingleEdgeCover(benchmark::State& state) {
  BipartiteInstance instance =
      SyntheticInstance(state.range(0), state.range(0), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMinWeightVertexCover(instance));
  }
}
BENCHMARK(BM_SingleEdgeCover)->Arg(4)->Arg(16)->Arg(64)->Arg(128);

struct PlanFixture {
  PlanFixture() : topology(MakeGreatDuckIslandLike()), paths(topology) {
    WorkloadSpec spec;
    spec.destination_count = 14;
    spec.sources_per_destination = 20;
    spec.dispersion = 0.9;
    spec.seed = 42;
    workload = GenerateWorkload(topology, spec);
    forest = std::make_shared<const MulticastForest>(paths, workload.tasks);
  }
  Topology topology;
  PathSystem paths;
  Workload workload;
  std::shared_ptr<const MulticastForest> forest;
};

PlanFixture& Fixture() {
  static PlanFixture* fixture = new PlanFixture();
  return *fixture;
}

void BM_PathSystemConstruction(benchmark::State& state) {
  Topology topology = MakeGreatDuckIslandLike();
  for (auto _ : state) {
    PathSystem paths(topology);
    benchmark::DoNotOptimize(paths.HopDistance(0, 1));
  }
}
BENCHMARK(BM_PathSystemConstruction);

// One column on a density-matched 10k-node network, built in a fresh
// PathSystem each iteration (construction untimed), so nothing is cached.
// Arg 0 = default cost (layered hop sweep); Arg 1 = a constant 1.0 custom
// cost, which yields the same weights through the heap Dijkstra.
void BM_PathSystemColumn(benchmark::State& state) {
  static const Topology* topology =
      new Topology(MakeScalingSeries({10000}, 1).front());
  const PathSystem::LinkCostFn unit_cost = [](NodeId, NodeId) { return 1.0; };
  const int n = topology->node_count();
  NodeId target = 0;
  for (auto _ : state) {
    state.PauseTiming();
    PathSystem paths(*topology, 0x5eed,
                     state.range(0) == 0 ? nullptr : unit_cost);
    target = (target + 7919) % n;
    state.ResumeTiming();
    paths.Materialize({target});
    benchmark::DoNotOptimize(paths.PathWeight(0, target));
  }
}
BENCHMARK(BM_PathSystemColumn)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The fixture's PathSystem is warm, so this times the path walk and edge
// bookkeeping only; BM_PathSystemColumn times the column builds.
void BM_MulticastForestConstruction(benchmark::State& state) {
  PlanFixture& fx = Fixture();
  for (auto _ : state) {
    MulticastForest forest(fx.paths, fx.workload.tasks);
    benchmark::DoNotOptimize(forest.edges().size());
  }
}
BENCHMARK(BM_MulticastForestConstruction);

// churn_10k's shape (perfbench/workloads.cc): 10k nodes and 32 destinations
// x 8 uniform sources in catalog (destination) order, plus the task list
// after one source add and one query admission.
struct ChurnFixture {
  ChurnFixture()
      : topology(MakeScalingSeries({10000}, 7).front()), paths(topology) {
    WorkloadSpec spec;
    spec.destination_count = 32;
    spec.sources_per_destination = 8;
    spec.selection = SourceSelection::kUniform;
    spec.seed = 11;
    QueryCatalog catalog =
        QueryCatalog::FromWorkload(GenerateWorkload(topology, spec));
    workload = catalog.ToWorkload();
    forest = std::make_shared<const MulticastForest>(paths, workload.tasks);

    const NodeId d = workload.tasks[0].destination;
    catalog.AddSource(d, FreshNode(d, workload.tasks[0].sources), 1.0);
    QueryDefinition query;
    query.destination = FreshNode(d, workload.tasks[0].sources);
    for (NodeId s = 0; query.spec.weights.size() < 8; s += 997) {
      if (s != query.destination) query.spec.weights.emplace_back(s, 1.0);
    }
    catalog.Admit(query);
    next = catalog.ToWorkload();
  }

  // A node that is no destination, not d, and not in `sources`.
  NodeId FreshNode(NodeId d, const std::vector<NodeId>& sources) const {
    for (NodeId n = 1;; ++n) {
      bool used = n == d || std::find(sources.begin(), sources.end(), n) !=
                                sources.end();
      for (const Task& task : workload.tasks) {
        used = used || task.destination == n;
      }
      if (!used) return n;
    }
  }

  Topology topology;
  PathSystem paths;
  Workload workload;
  std::shared_ptr<const MulticastForest> forest;
  Workload next;
};

ChurnFixture& Churn() {
  static ChurnFixture* fixture = new ChurnFixture();
  return *fixture;
}

// Full build of the churned task list over a warm PathSystem, the cost a
// commit paid before forests were updated in place.
void BM_MulticastForestConstruction10k(benchmark::State& state) {
  ChurnFixture& fx = Churn();
  for (auto _ : state) {
    MulticastForest forest(fx.paths, fx.next.tasks);
    benchmark::DoNotOptimize(forest.edges().size());
  }
}
BENCHMARK(BM_MulticastForestConstruction10k)->Unit(benchmark::kMillisecond);

// The same result, updated from the previous forest: only the added pairs
// are walked.
void BM_MulticastForestUpdate(benchmark::State& state) {
  ChurnFixture& fx = Churn();
  for (auto _ : state) {
    MulticastForest forest(*fx.forest, fx.paths, fx.next.tasks);
    benchmark::DoNotOptimize(forest.edges().size());
  }
}
BENCHMARK(BM_MulticastForestUpdate)->Unit(benchmark::kMillisecond);

// One lifecycle commit on the 10k deployment: iterations alternate adding
// and removing one source, so the catalog stays bounded.
void BM_LifecycleCommit10k(benchmark::State& state) {
  ChurnFixture& fx = Churn();
  QueryLifecycleManager manager(fx.topology, fx.workload,
                                PickBaseStation(fx.topology));
  const NodeId d = fx.workload.tasks[0].destination;
  const NodeId source = fx.FreshNode(d, fx.workload.tasks[0].sources);
  bool add = true;
  for (auto _ : state) {
    const MutationResult result = add ? manager.AddSource(d, source, 1.0)
                                      : manager.RemoveSource(d, source);
    benchmark::DoNotOptimize(result.delta_state_bytes);
    add = !add;
  }
}
BENCHMARK(BM_LifecycleCommit10k)->Unit(benchmark::kMillisecond);

void BM_BuildFullPlan(benchmark::State& state) {
  PlanFixture& fx = Fixture();
  for (auto _ : state) {
    GlobalPlan plan = BuildPlan(fx.forest, fx.workload.functions, {});
    benchmark::DoNotOptimize(plan.TotalPayloadBytes());
  }
}
BENCHMARK(BM_BuildFullPlan);

void BM_IncrementalUpdateAddSource(benchmark::State& state) {
  PlanFixture& fx = Fixture();
  GlobalPlan plan = BuildPlan(fx.forest, fx.workload.functions, {});
  NodeId d = fx.workload.tasks[0].destination;
  NodeId fresh = kInvalidNode;
  for (NodeId n = 0; n < fx.topology.node_count(); ++n) {
    const auto& sources = fx.workload.tasks[0].sources;
    if (n != d &&
        std::find(sources.begin(), sources.end(), n) == sources.end()) {
      fresh = n;
      break;
    }
  }
  Workload updated = WithSourceAdded(fx.workload, fresh, d, 1.0);
  auto updated_forest =
      std::make_shared<const MulticastForest>(fx.paths, updated.tasks);
  for (auto _ : state) {
    UpdateStats stats;
    GlobalPlan incremental =
        UpdatePlan(plan, updated_forest, updated.functions, &stats);
    benchmark::DoNotOptimize(incremental.TotalPayloadBytes());
  }
}
BENCHMARK(BM_IncrementalUpdateAddSource);

void BM_RebuildAfterAddSource(benchmark::State& state) {
  PlanFixture& fx = Fixture();
  NodeId d = fx.workload.tasks[0].destination;
  NodeId fresh = kInvalidNode;
  for (NodeId n = 0; n < fx.topology.node_count(); ++n) {
    const auto& sources = fx.workload.tasks[0].sources;
    if (n != d &&
        std::find(sources.begin(), sources.end(), n) == sources.end()) {
      fresh = n;
      break;
    }
  }
  Workload updated = WithSourceAdded(fx.workload, fresh, d, 1.0);
  auto updated_forest =
      std::make_shared<const MulticastForest>(fx.paths, updated.tasks);
  for (auto _ : state) {
    GlobalPlan full = BuildPlan(updated_forest, updated.functions, {});
    benchmark::DoNotOptimize(full.TotalPayloadBytes());
  }
}
BENCHMARK(BM_RebuildAfterAddSource);

void BM_BuildFullPlan_Threads(benchmark::State& state) {
  PlanFixture& fx = Fixture();
  ScopedParallelism parallelism(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    GlobalPlan plan = BuildPlan(fx.forest, fx.workload.functions, {});
    benchmark::DoNotOptimize(plan.TotalPayloadBytes());
  }
}
BENCHMARK(BM_BuildFullPlan_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_CompilePlan(benchmark::State& state) {
  PlanFixture& fx = Fixture();
  GlobalPlan plan = BuildPlan(fx.forest, fx.workload.functions, {});
  for (auto _ : state) {
    CompiledPlan compiled =
        CompiledPlan::Compile(plan, fx.workload.functions);
    benchmark::DoNotOptimize(compiled.node_count());
  }
}
BENCHMARK(BM_CompilePlan);

void BM_ExecuteRound(benchmark::State& state) {
  PlanFixture& fx = Fixture();
  GlobalPlan plan = BuildPlan(fx.forest, fx.workload.functions, {});
  CompiledPlan compiled = CompiledPlan::Compile(plan, fx.workload.functions);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        fx.workload.functions, EnergyModel{});
  ReadingGenerator readings(fx.topology.node_count(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.RunRound(readings.values()).energy_mj);
  }
}
BENCHMARK(BM_ExecuteRound);

void BM_ExecuteRound_Threads(benchmark::State& state) {
  PlanFixture& fx = Fixture();
  GlobalPlan plan = BuildPlan(fx.forest, fx.workload.functions, {});
  CompiledPlan compiled = CompiledPlan::Compile(plan, fx.workload.functions);
  PlanExecutor executor(std::make_shared<CompiledPlan>(compiled),
                        fx.workload.functions, EnergyModel{});
  ReadingGenerator readings(fx.topology.node_count(), 3);
  ScopedParallelism parallelism(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        executor.RunRound(readings.values()).energy_mj);
  }
}
BENCHMARK(BM_ExecuteRound_Threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// heal_1k's Gilbert–Elliott channel (perfbench/workloads.cc).
ChannelOptions HealChannelOptions() {
  ChannelOptions options;
  options.good_loss = 0.03;
  options.bad_loss = 0.6;
  options.p_enter_bad = 0.02;
  options.p_exit_bad = 0.3;
  options.seed = 5;
  return options;
}

// One delivery query per (link, attempt): 1024 directed links, each asked
// for the 8 attempts from Arg on. Arg 1 = a data hop's attempts, Arg 1001
// = the detector's probe attempts, whose burst walks start 41-48 steps
// into their 64-attempt block.
void BM_ChannelAttemptDelivers(benchmark::State& state) {
  const ChannelModel channel(HealChannelOptions());
  const int first_attempt = static_cast<int>(state.range(0));
  int round = 0;
  for (auto _ : state) {
    int delivered = 0;
    for (NodeId from = 0; from < 1024; ++from) {
      const NodeId to = (from * 7919 + 13) % 1000;
      for (int attempt = first_attempt; attempt < first_attempt + 8;
           ++attempt) {
        delivered += channel.AttemptDelivers(round, from, to, attempt);
      }
    }
    benchmark::DoNotOptimize(delivered);
    ++round;
  }
  state.SetItemsProcessed(state.iterations() * 1024 * 8);
}
BENCHMARK(BM_ChannelAttemptDelivers)->Arg(1)->Arg(1001);

// heal_1k's per-episode fault schedule (perfbench/workloads.cc): 50
// rounds of persistent faults only, 4 link failures, 3 deaths, 2 heals and
// 2 recoveries.
FaultSchedule HealFaultSchedule(const Topology& topology) {
  FaultScheduleOptions options;
  options.rounds = 50;
  options.transient_link_fraction = 0.0;
  options.persistent_link_failures = 4;
  options.node_deaths = 3;
  options.link_heals = 2;
  options.node_recoveries = 2;
  options.recovery_delay_rounds = options.rounds / 8;
  options.seed = 5;
  return FaultSchedule::Generate(topology, {0}, options);
}

// The fault-schedule brute-force test's 300-round schedule, dense with
// transient faults (tests/fault_injection_test.cc).
FaultSchedule DenseFaultSchedule(const Topology& topology) {
  FaultScheduleOptions options;
  options.rounds = 300;
  options.transient_link_fraction = 0.08;
  options.transient_drop_probability = 0.5;
  options.persistent_link_failures = 8;
  options.node_deaths = 4;
  options.link_heals = 4;
  options.node_recoveries = 2;
  options.recovery_delay_rounds = 40;
  options.seed = 5;
  return FaultSchedule::Generate(topology, {0}, options);
}

// One detector round on a 1000-node network where no link carried data:
// every directed link of a live monitor runs its probe exchange over
// heal_1k's physical layer, the fault schedule ANDed with the channel, and
// the schedule says which monitors run, as in perfbench's heal loop.
void BM_DetectorObserveRound(benchmark::State& state) {
  const Topology topology = MakeScalingSeries({1000}, 1).front();
  const FaultSchedule faults = HealFaultSchedule(topology);
  const ChannelModel channel(HealChannelOptions());
  FailureDetector detector(topology);
  const std::vector<std::pair<NodeId, NodeId>> silent;
  int round = 0;
  for (auto _ : state) {
    const FailureDetector::RoundReport report = detector.ObserveRound(
        round, silent,
        [&faults, &channel, round](NodeId from, NodeId to, int attempt) {
          return faults.AttemptDelivers(round, from, to, attempt) &&
                 channel.AttemptDelivers(round, from, to, attempt);
        },
        [&faults, round](NodeId n) { return faults.NodeAliveAt(round, n); });
    benchmark::DoNotOptimize(report.probe_transmissions);
    round = (round + 1) % faults.options().rounds;
  }
}
BENCHMARK(BM_DetectorObserveRound)->Unit(benchmark::kMillisecond);

// One fault-schedule delivery query per directed link per round, cycling
// through the schedule's rounds. Arg 0: heal_1k's schedule on 1000 nodes;
// Arg 1: the transient-dense schedule on the test's 6x6 grid.
void BM_FaultScheduleAttemptDelivers(benchmark::State& state) {
  const bool dense = state.range(0) != 0;
  const Topology topology = dense ? MakeGrid(6, 6, 10.0, 15.0)
                                  : MakeScalingSeries({1000}, 1).front();
  const FaultSchedule faults =
      dense ? DenseFaultSchedule(topology) : HealFaultSchedule(topology);
  int round = 0;
  for (auto _ : state) {
    int delivered = 0;
    for (NodeId from = 0; from < topology.node_count(); ++from) {
      for (NodeId to : topology.neighbors(from)) {
        delivered += faults.AttemptDelivers(round, from, to, 1);
      }
    }
    benchmark::DoNotOptimize(delivered);
    round = (round + 1) % faults.options().rounds;
  }
  state.SetItemsProcessed(state.iterations() * 2 * topology.link_count());
}
BENCHMARK(BM_FaultScheduleAttemptDelivers)->Arg(0)->Arg(1);

// churn_10k's data round (perfbench/workloads.cc): RunRoundLossy on the
// 10k-node, 32 x 8 uniform plan. Arg 0: clean links; Arg 1: heal_1k's
// Gilbert–Elliott channel, cycling through 16 bound rounds; Arg 2: clean
// links with a MetricsRegistry attached, the with/without A/B of the
// metrics hot path.
void BM_LossyRound(benchmark::State& state) {
  ChurnFixture& fx = Churn();
  static const CompiledPlan* compiled = new CompiledPlan(CompiledPlan::Compile(
      BuildPlan(fx.forest, fx.workload.functions), fx.workload.functions));
  const int mode = static_cast<int>(state.range(0));
  RuntimeNetwork network(*compiled, fx.workload.functions);
  obs::MetricsRegistry registry;
  if (mode == 2) network.set_metrics(&registry);
  const ChannelModel channel(HealChannelOptions());
  std::vector<LossyLinkModel> links;
  if (mode == 1) {
    for (int round = 0; round < 16; ++round) {
      links.push_back(channel.Bind(round));
    }
  } else {
    links.emplace_back().attempt_delivers = [](NodeId, NodeId, int) {
      return true;
    };
  }
  std::vector<double> readings(fx.topology.node_count());
  for (size_t i = 0; i < readings.size(); ++i) {
    readings[i] = 10.0 + static_cast<double>(i % 17);
  }
  size_t round = 0;
  int64_t attempts = 0;
  for (auto _ : state) {
    const RuntimeNetwork::LossyResult result =
        network.RunRoundLossy(readings, links[round++ % links.size()]);
    benchmark::DoNotOptimize(result.final_tick);
    attempts += result.attempts;
  }
  state.counters["attempts"] = benchmark::Counter(
      static_cast<double>(attempts), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_LossyRound)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

// BENCHMARK_MAIN plus the harness parallelism flags. The explicit main
// skips ReportUnrecognizedArguments so `--threads` / `--shards` pass
// through to FlagParser.
int main(int argc, char** argv) {
  m2m::bench::ApplyParallelismFlags(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
