// Plan-layer commit replay, the traced-run layer probe, and the span-derived
// per-layer metrics shared by every workload.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.h"
#include "event/event_runtime.h"
#include "event/transport.h"
#include "lifecycle/admission.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

using namespace m2m;

namespace {

constexpr int kProbeThreads = 4;
constexpr int kProbeRepetitions = 3;

}  // namespace

LossyLinkModel CleanLinks() {
  LossyLinkModel clean;
  clean.attempt_delivers = [](NodeId, NodeId, int) { return true; };
  return clean;
}

bool MatchesDirect(const Workload& workload,
                   const std::vector<double>& readings,
                   const std::unordered_map<NodeId, double>& values) {
  for (const Task& task : workload.tasks) {
    auto it = values.find(task.destination);
    if (it == values.end()) return false;
    std::unordered_map<NodeId, double> inputs;
    for (NodeId source : task.sources) inputs[source] = readings[source];
    const double want = workload.functions.Get(task.destination).Direct(inputs);
    if (!ValueMatches(it->second, want)) return false;
  }
  return true;
}

ReplayOutcome ReplayCommit(const Topology& topology, const PathSystem& paths,
                           const PlanState& from, const Workload& next,
                           uint32_t epoch, Tracer& tracer) {
  ReplayOutcome out;
  std::shared_ptr<const GlobalPlan> candidate;
  {
    ScopedSpan span(tracer, "plan.replan");
    candidate = std::make_shared<const GlobalPlan>(ReplanForWorkload(
        *from.plan, paths, next.tasks, next.functions, &out.stats));
  }
  {
    ScopedSpan span(tracer, "plan.consistency");
    const bool consistent = FindConsistencyViolations(*candidate).empty();
    const std::vector<DirectedEdge> divergent =
        DivergentEdgeKeys(*from.plan, *candidate);
    const std::vector<DirectedEdge> predicted = PredictedPerturbedEdges(
        *from.plan, from.workload.functions, *candidate, next.functions);
    out.valid = consistent && std::includes(predicted.begin(), predicted.end(),
                                            divergent.begin(), divergent.end());
  }
  std::shared_ptr<const CompiledPlan> compiled;
  {
    ScopedSpan span(tracer, "plan.compile");
    compiled = std::make_shared<const CompiledPlan>(CompiledPlan::Compile(
        *candidate, next.functions, MergePolicy::kGreedyMergePerEdge, epoch));
  }
  AdmissionDecision decision;
  {
    ScopedSpan span(tracer, "lifecycle.admission");
    decision = CheckPlanBudgets(*compiled, next.functions, topology,
                                AdmissionLimits{});
  }
  if (!decision.admitted) return out;
  out.admitted = true;
  std::vector<std::vector<uint8_t>> images;
  {
    ScopedSpan span(tracer, "plan.image_diff");
    images = EncodeAllNodeStates(*compiled, next.functions);
    for (const NodeImageDelta& delta : DiffNodeImages(from.images, images)) {
      if (delta.ship_image) {
        ++out.images_shipped;
        out.delta_bytes += static_cast<int64_t>(images[delta.node].size());
      } else {
        ++out.bumps_shipped;
        out.delta_bytes += kEpochBumpPayloadBytes;
      }
    }
  }
  out.next.workload = next;
  out.next.plan = std::move(candidate);
  out.next.images = std::move(images);
  return out;
}

void RunLayerProbe(const Topology& topology, const Workload& workload,
                   Tracer& tracer, RunResult& result) {
  RestoreCpus();
  ScopedSpan diagnostic(tracer, "diag.probe");
  const FunctionSet& functions = workload.functions;
  std::unique_ptr<PathSystem> paths;
  std::shared_ptr<const MulticastForest> forest;
  {
    ScopedSpan span(tracer, "routing.forest");
    paths = std::make_unique<PathSystem>(topology);
    forest = std::make_shared<const MulticastForest>(*paths, workload.tasks);
  }
  std::shared_ptr<const GlobalPlan> plan;
  {
    ScopedSpan span(tracer, "plan.build");
    plan = std::make_shared<const GlobalPlan>(BuildPlan(forest, functions));
  }
  std::shared_ptr<const CompiledPlan> compiled;
  {
    ScopedSpan span(tracer, "plan.compile");
    compiled = std::make_shared<const CompiledPlan>(
        CompiledPlan::Compile(*plan, functions));
  }
  std::unique_ptr<RuntimeNetwork> network;
  {
    ScopedSpan span(tracer, "runtime.install");
    network = std::make_unique<RuntimeNetwork>(*compiled, functions);
  }
  result.per_layer.push_back({"routing.forest_edges",
                              static_cast<double>(forest->edges().size()),
                              "count"});
  result.per_layer.push_back(
      {"runtime.image_bytes",
       static_cast<double>(network->installed_image_bytes()), "count"});

  ReadingGenerator readings(topology.node_count(), /*seed=*/4242);
  const std::vector<double>& values = readings.values();
  const LossyLinkModel clean = CleanLinks();

  // Each stage: one untimed warm-up call, then spans over the repetitions.
  auto repeat = [&](const char* name, const auto& run_once) {
    run_once();
    for (int i = 0; i < kProbeRepetitions; ++i) {
      ScopedSpan span(tracer, name);
      run_once();
    }
  };
  auto check = [&](bool ok, const char* what) {
    if (!ok) result.FailCheck(std::string("probe: ") + what);
  };

  {
    ScopedParallelism parallel(kProbeThreads);
    std::shared_ptr<const MulticastForest> forest4;
    {
      ScopedSpan span(tracer, "routing.forest.t4");
      PathSystem paths4(topology);
      forest4 = std::make_shared<const MulticastForest>(paths4, workload.tasks);
    }
    std::shared_ptr<const GlobalPlan> plan4;
    {
      ScopedSpan span(tracer, "plan.build.t4");
      plan4 = std::make_shared<const GlobalPlan>(BuildPlan(forest4, functions));
    }
    check(PlansEquivalent(*plan, *plan4), "4-thread plan differs");
    repeat("runtime.lossy_round.t4", [&] {
      check(MatchesDirect(workload, values,
                          network->RunRoundLossy(values, clean)
                              .destination_values),
            "4-thread lossy round");
    });
  }
  repeat("runtime.bytelevel_round", [&] {
    check(MatchesDirect(workload, values,
                        network->RunRound(values).destination_values),
          "byte-level round");
  });
  {
    event::EventNetwork engine(*network);
    event::RoundCompatTransport transport(clean);
    repeat("event.compat_round", [&] {
      check(MatchesDirect(workload, values,
                          engine.RunCompatRound(values, transport)
                              .destination_values),
            "event compat round");
    });
  }
  {
    // PlanExecutor::RunRound CHECKs its values against direct evaluation.
    PlanExecutor executor(compiled, functions, EnergyModel{});
    repeat("sim.analytic_round", [&] { executor.RunRound(values); });
  }
  {
    obs::MetricsRegistry registry;
    network->set_metrics(&registry);
    repeat("obs.metrics_round", [&] {
      check(MatchesDirect(workload, values,
                          network->RunRoundLossy(values, clean)
                              .destination_values),
            "metrics-attached round");
    });
    network->set_metrics(nullptr);
  }
}

void AddSpanMetrics(const Tracer& tracer, RunResult& result) {
  static const std::pair<const char*, const char*> kSpanMetrics[] = {
      {"routing.forest", "routing.forest_ms"},
      {"routing.forest.t4", "routing.forest_ms.t4"},
      {"plan.build", "plan.build_ms"},
      {"plan.build.t4", "plan.build_ms.t4"},
      {"plan.compile", "plan.compile_ms"},
      {"plan.replan", "plan.replan_ms"},
      {"plan.consistency", "plan.consistency_ms"},
      {"plan.image_diff", "plan.image_diff_ms"},
      {"lifecycle.admission", "lifecycle.admission_ms"},
      {"runtime.install", "runtime.install_ms"},
      {"runtime.lossy_round", "runtime.lossy_round_ms"},
      {"runtime.lossy_round.t4", "runtime.lossy_round_ms.t4"},
      {"runtime.bytelevel_round", "runtime.bytelevel_round_ms"},
      {"event.compat_round", "event.compat_round_ms"},
      {"sim.analytic_round", "sim.analytic_round_ms"},
      {"obs.metrics_round", "obs.metrics_round_ms"},
  };
  for (const auto& [span, metric] : kSpanMetrics) {
    const std::vector<double> durations = tracer.Durations(span);
    if (durations.empty()) result.FailCheck(std::string("no span ") + span);
    result.per_layer.push_back({metric, Median(durations), "ms"});
    result.samples[metric] = Summarize(durations);
  }
  const std::map<std::string, double> self = tracer.LayerSelfMs();
  for (const char* layer :
       {"routing", "plan", "lifecycle", "runtime", "event", "sim", "obs"}) {
    auto it = self.find(layer);
    result.per_layer.push_back({std::string(layer) + ".self_ms",
                                it == self.end() ? 0.0 : it->second, "ms"});
  }
}

}  // namespace perfbench
