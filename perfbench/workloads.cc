// The three benchmark workloads. Each builds its inputs (untimed) from a
// fixed network and the seed, times set-up and its operations with tracing
// off or on, checks every operation's output outside the timed region, and
// folds the simulated outputs into the run digest. See README.md for why
// each workload exists and which layers it stresses.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "lifecycle/churn_schedule.h"
#include "lifecycle/lifecycle.h"
#include "obs/metrics.h"
#include "runtime/channel.h"
#include "sim/fault_schedule.h"
#include "sim/self_healing.h"
#include "workloads.h"

namespace perfbench {

using namespace m2m;

namespace {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ull + stream);
}

// The network and its initial queries are fixed per workload; --seed drives
// everything that happens on them (readings, faults, loss, mutations). Round
// cost follows the longest route of the query set, so drawing the network
// per seed moved bulk_100k's median round by +-30% between seeds.
constexpr uint64_t kStructureSeed = 0;

Topology MakeTopology(int nodes) {
  return MakeScalingSeries({nodes}, SubSeed(kStructureSeed, 1)).front();
}

Workload MakeWorkload(const Topology& topology, int destinations,
                      int sources, SourceSelection selection) {
  WorkloadSpec spec;
  spec.destination_count = destinations;
  spec.sources_per_destination = sources;
  spec.selection = selection;
  spec.kind = AggregateKind::kWeightedAverage;
  spec.seed = SubSeed(kStructureSeed, 2);
  return GenerateWorkload(topology, spec);
}

/// Per-round data-plane work counts, averaged over the measured rounds.
struct RoundCounters {
  int rounds = 0;
  double final_tick = 0;
  double attempts = 0;
  double retransmissions = 0;
  double duplicates = 0;
  double payload_bytes = 0;

  void Add(const RuntimeNetwork::LossyResult& r) {
    ++rounds;
    final_tick += r.final_tick;
    attempts += static_cast<double>(r.attempts);
    retransmissions += static_cast<double>(r.retransmissions);
    duplicates += static_cast<double>(r.duplicates);
    payload_bytes += static_cast<double>(r.payload_bytes);
  }
  void Emit(int nodes, RunResult& result) const {
    const double n = std::max(rounds, 1);
    result.per_layer.push_back({"runtime.final_tick", final_tick / n, "count"});
    result.per_layer.push_back(
        {"runtime.node_ticks", nodes * final_tick / n, "count"});
    result.per_layer.push_back({"runtime.attempts", attempts / n, "count"});
    result.per_layer.push_back(
        {"runtime.retransmissions", retransmissions / n, "count"});
    result.per_layer.push_back({"runtime.duplicates", duplicates / n, "count"});
    result.per_layer.push_back(
        {"runtime.payload_bytes", payload_bytes / n, "count"});
  }
};

/// Per-mutation plan and dissemination counts, averaged over commits.
struct MutationCounters {
  int commits = 0;
  double edges_reoptimized = 0;
  double edges_total = 0;
  double images = 0;
  double bumps = 0;

  void Add(const UpdateStats& stats, int images_shipped, int bumps_shipped) {
    ++commits;
    edges_reoptimized += stats.edges_reoptimized;
    edges_total += stats.edges_total;
    images += images_shipped;
    bumps += bumps_shipped;
  }
  void Emit(RunResult& result) const {
    const double n = std::max(commits, 1);
    result.per_layer.push_back(
        {"plan.edges_reoptimized", edges_reoptimized / n, "count"});
    result.per_layer.push_back({"plan.edges_total", edges_total / n, "count"});
    result.per_layer.push_back(
        {"lifecycle.images_shipped", images / n, "count"});
    result.per_layer.push_back({"lifecycle.bumps_shipped", bumps / n, "count"});
  }
};

/// Self-healing control-loop counts; zero on workloads without that loop.
struct ControlCounters {
  int rounds = 0;
  int replans = 0;
  double probes = 0;
  double control_hop_attempts = 0;
  double control_bytes = 0;

  void Emit(RunResult& result) const {
    const double n = std::max(rounds, 1);
    result.per_layer.push_back({"plan.replans", double(replans), "count"});
    result.per_layer.push_back(
        {"sim.probe_tx_per_round", probes / n, "count"});
    result.per_layer.push_back({"sim.control_hop_attempts_per_round",
                                control_hop_attempts / n, "count"});
    result.per_layer.push_back(
        {"sim.control_bytes_per_round", control_bytes / n, "count"});
  }
};

/// Checks a clean-link round: every destination completed with the direct
/// evaluation of its query over this round's readings.
bool CheckCleanRound(const Workload& workload,
                     const std::vector<double>& readings,
                     const RuntimeNetwork::LossyResult& round,
                     Digest& digest) {
  for (const Task& task : workload.tasks) {
    auto it = round.destination_values.find(task.destination);
    digest.AddDouble(it == round.destination_values.end() ? 0.0 : it->second);
  }
  digest.AddDouble(round.energy_mj);
  digest.Add(static_cast<uint64_t>(round.payload_bytes));
  digest.Add(static_cast<uint64_t>(round.final_tick));
  digest.Add(static_cast<uint64_t>(round.attempts));
  return round.incomplete_destinations.empty() &&
         MatchesDirect(workload, readings, round.destination_values);
}

/// Source-add / source-remove churn events for `workload`, in the order
/// they apply.
std::vector<ChurnEvent> SourceChurn(const Topology& topology,
                                    const Workload& workload, int count,
                                    uint64_t seed) {
  ChurnScheduleOptions options;
  options.rounds = count + 2;
  options.admissions = 0;
  options.retirements = 0;
  options.source_adds = (count + 1) / 2;
  options.source_removes = count / 2;
  options.seed = seed;
  return ChurnSchedule::Generate(topology, workload, {}, options).events();
}

/// True iff the manager's live plan differs from a from-scratch plan of its
/// queries over `paths`.
bool DivergesFromScratch(const QueryLifecycleManager& manager,
                         const PathSystem& paths) {
  auto forest = std::make_shared<const MulticastForest>(
      paths, manager.workload().tasks);
  return !FindPlanDivergence(manager.plan(),
                             BuildPlan(forest, manager.workload().functions))
              .empty();
}

/// Lifecycle mutations applied one at a time through a
/// QueryLifecycleManager, each one timed operation. Commit itself CHECKs
/// Theorem 1 and Corollary 1; the log checks that the catalog version moves
/// exactly on commits. In traced runs each commit is replayed afterwards
/// from the state it started at, through the public calls Commit makes, to
/// split it into per-layer spans; the replay must reproduce the manager's
/// plan and delta bytes.
class MutationLog {
 public:
  MutationLog(const Topology& topology, Tracer& tracer)
      : topology_(topology), tracer_(tracer) {}

  void Apply(QueryLifecycleManager& manager, const ChurnEvent& event,
             RunResult& result) {
    PlanState before;
    if (tracer_.enabled()) {
      before.workload = manager.workload();
      before.plan = std::make_shared<const GlobalPlan>(manager.plan());
      before.images = manager.images();
    }
    const int64_t version = manager.catalog().version();
    MutationResult m;
    const double reference = PrepareTimedOperation();
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer_, "lifecycle.mutation");
      m = ApplyChurnEvent(manager, event);
    }
    ms.Add(MsBetween(start, Clock::now()), reference);

    const bool committed = m.decision.admitted && !m.deduplicated;
    bool ok = committed ? manager.catalog().version() > version
                        : manager.catalog().version() == version;
    result.digest.Add(static_cast<uint64_t>(m.decision.reason));
    result.digest.Add(static_cast<uint64_t>(m.catalog_version));
    result.digest.Add(static_cast<uint64_t>(m.delta_state_bytes));
    result.digest.Add(static_cast<uint64_t>(m.replan.edges_reoptimized));
    if (committed) {
      ++commits;
      delta_bytes += m.delta_state_bytes;
      counters.Add(m.replan, m.images_shipped, m.bumps_shipped);
      if (check_every > 0 && commits % check_every == 0) {
        ok = ok && !DivergesFromScratch(manager, manager.paths());
      }
      if (tracer_.enabled()) {
        ScopedSpan diagnostic(tracer_, "diag.replay");
        const ReplayOutcome replay = ReplayCommit(
            topology_, manager.paths(), before, manager.workload(),
            static_cast<uint32_t>(manager.catalog().version()), tracer_);
        ok = ok && replay.valid && replay.admitted &&
             PlansEquivalent(*replay.next.plan, manager.plan()) &&
             replay.delta_bytes == m.delta_state_bytes;
      }
    }
    result.RecordOperation(ok, "lifecycle mutation output check failed");
  }

  /// Every check_every-th commit is also checked against a from-scratch
  /// plan (0: never).
  int check_every = 0;
  Timings ms;
  int64_t delta_bytes = 0;
  int commits = 0;
  MutationCounters counters;

 private:
  const Topology& topology_;
  Tracer& tracer_;
};

void AddEndToEnd(RunResult& result, const std::string& name, double value,
                 const std::string& unit) {
  result.end_to_end.push_back({name, value, unit});
}

/// Reports the median of `timings` (times `scale`) at nominal host speed;
/// the measured median goes to the diagnostics.
void AddTimed(RunResult& result, const std::string& name,
              const Timings& timings, double scale, const std::string& unit) {
  std::vector<double> scaled;
  for (double sample : timings.AtNominalSpeed()) {
    scaled.push_back(sample * scale);
  }
  result.samples[name] = Summarize(scaled);
  result.info["measured_" + name] = Median(timings.ms) * scale;
  AddEndToEnd(result, name, Median(scaled), unit);
}

}  // namespace

// ---------------------------------------------------------------- bulk_100k

RunResult RunBulk(const Options& options, Tracer& tracer) {
  UseReference(ReferenceKind::kWithMemory);
  constexpr int kNodes = 100000;
  // The run is kBlocks blocks of {set-up, warm-up round, measured rounds,
  // mutations}, so every timing's samples span the whole run rather than
  // one contiguous stretch of a host whose speed drifts over seconds.
  constexpr int kBlocks = 3;
  constexpr int kMutationsPerBlock = 8;
  const int rounds_per_block = std::max(2, options.seconds);

  RunResult result;
  const Topology topology = MakeTopology(kNodes);
  const Workload workload =
      MakeWorkload(topology, 64, 5, SourceSelection::kUniform);
  const NodeId base = PickBaseStation(topology);
  const LossyLinkModel clean = CleanLinks();
  ReadingGenerator readings(kNodes, SubSeed(options.seed, 3));

  // Set-up is the managed deployment: a lifecycle manager plans the queries
  // (routing, plan, compile, images) and the runtime installs its plan.
  // Each block's mutations then go through that block's manager.
  std::unique_ptr<QueryLifecycleManager> manager;
  std::unique_ptr<RuntimeNetwork> network;
  MutationLog mutations(topology, tracer);
  Timings setup_ms;
  Timings round_ms;
  double energy = 0.0;
  int64_t pairs = 0;
  int64_t completed = 0;
  int64_t state_entries = 0;
  RoundCounters counters;
  for (int block = 0; block < kBlocks; ++block) {
    manager.reset();
    double reference = PrepareTimedOperation();
    Clock::time_point start = Clock::now();
    {
      ScopedSpan root(tracer, "bench.setup");
      {
        ScopedSpan span(tracer, "lifecycle.setup");
        manager =
            std::make_unique<QueryLifecycleManager>(topology, workload, base);
      }
      {
        ScopedSpan span(tracer, "runtime.install");
        network = std::make_unique<RuntimeNetwork>(
            manager->compiled(), manager->workload().functions);
      }
    }
    setup_ms.Add(MsBetween(start, Clock::now()), reference);
    state_entries = manager->compiled().ComputeStateTotals().total();
    result.digest.Add(static_cast<uint64_t>(state_entries));

    const Workload& installed = manager->workload();
    for (int r = 0; r <= rounds_per_block; ++r) {
      readings.Advance(1.0);
      RuntimeNetwork::LossyResult round;
      reference = PrepareTimedOperation();
      start = Clock::now();
      if (r == 0) {
        round = network->RunRoundLossy(readings.values(), clean);
      } else {
        ScopedSpan span(tracer, "runtime.lossy_round");
        round = network->RunRoundLossy(readings.values(), clean);
      }
      const double ms = MsBetween(start, Clock::now());
      result.RecordOperation(
          CheckCleanRound(installed, readings.values(), round, result.digest),
          "bulk round values differ from direct evaluation");
      if (r == 0) continue;  // Warm-up round after each install.
      round_ms.Add(ms, reference);
      energy += round.energy_mj;
      pairs += static_cast<int64_t>(installed.tasks.size());
      completed += static_cast<int64_t>(round.destination_values.size());
      counters.Add(round);
    }
    network.reset();

    for (const ChurnEvent& event :
         SourceChurn(topology, workload, kMutationsPerBlock,
                     SubSeed(options.seed, 10 + block))) {
      mutations.Apply(*manager, event, result);
    }
    if (DivergesFromScratch(*manager, manager->paths())) {
      result.FailCheck("mutated plan diverges from a from-scratch plan");
    }
  }
  manager.reset();

  AddTimed(result, "setup_s", setup_ms, 1e-3, "s");
  AddTimed(result, "round_ms", round_ms, 1.0, "ms");
  // No bulk round replans: a replan round here is an ordinary round.
  AddTimed(result, "replan_round_ms", round_ms, 1.0, "ms");
  AddTimed(result, "mutation_ms", mutations.ms, 1.0, "ms");
  AddEndToEnd(result, "peak_rss_mb", PeakRssMb(), "MiB");
  AddEndToEnd(result, "energy_mj_per_round", energy / round_ms.size(), "mJ");
  AddEndToEnd(result, "state_entries", double(state_entries), "count");
  AddEndToEnd(result, "complete_share", double(completed) / pairs, "ratio");
  AddEndToEnd(result, "delta_bytes_per_mutation",
              double(mutations.delta_bytes) / std::max(mutations.commits, 1),
              "B");
  result.info["nodes"] = kNodes;
  result.info["blocks"] = kBlocks;
  result.info["rounds"] = double(round_ms.size());
  result.info["mutations"] = double(mutations.ms.size());
  result.info["commits"] = mutations.commits;

  if (options.trace) {
    RunLayerProbe(topology, workload, tracer, result);
    counters.Emit(kNodes, result);
    mutations.counters.Emit(result);
    ControlCounters{}.Emit(result);
    result.per_layer.push_back(
        {"sim.quiet_round_ms", Median(round_ms.ms), "ms"});
  }
  return result;
}

// ------------------------------------------------------------------ heal_1k

RunResult RunHeal(const Options& options, Tracer& tracer) {
  UseReference(ReferenceKind::kCacheResident);
  constexpr int kNodes = 1000;
  // The run is a series of kEpisodeRounds-round episodes, each a fresh
  // runtime under a fault schedule and loss of its own. Round cost follows
  // which nodes and links are down, so one long schedule per run moved the
  // median round with the seed; many short schedules average that out.
  constexpr int kEpisodeRounds = 50;
  // Set-up is ~9 ms, so besides each episode's runtime an extra one is
  // constructed every kSetupEvery rounds, and set-up is their median.
  constexpr int kSetupEvery = 5;
  // kMutationsPerRound lifecycle mutations per round, through a manager
  // that is rebuilt every kMutationsPerManager mutations.
  constexpr int kMutationsPerRound = 2;
  constexpr int kMutationsPerManager = 20;
  const int episodes = std::max(2, (4 * options.seconds + 14) / 15);

  RunResult result;
  const Topology topology = MakeTopology(kNodes);
  const Workload workload =
      MakeWorkload(topology, 16, 8, SourceSelection::kDispersion);
  const NodeId base = PickBaseStation(topology);
  std::vector<NodeId> protected_nodes = {base};
  for (const Task& task : workload.tasks) {
    protected_nodes.push_back(task.destination);
  }

  Timings setup_ms;
  auto construct = [&] {
    const double reference = PrepareTimedOperation();
    const Clock::time_point start = Clock::now();
    std::unique_ptr<SelfHealingRuntime> built;
    {
      ScopedSpan span(tracer, "sim.setup");
      built = std::make_unique<SelfHealingRuntime>(topology, workload, base);
    }
    setup_ms.Add(MsBetween(start, Clock::now()), reference);
    return built;
  };
  obs::MetricsRegistry registry;

  // Lifecycle mutations of the same queries, interleaved with the rounds,
  // through a manager of their own: built untimed, not attached to the
  // runtime, and rebuilt every kMutationsPerManager mutations. Like
  // churn_10k's episodes, the rebuild bounds the random walk of the source
  // sets, so the per-mutation outputs do not drift with the seed.
  std::unique_ptr<QueryLifecycleManager> lifecycle;
  std::vector<ChurnEvent> churn;
  size_t next_mutation = 0;
  int managers = 0;
  MutationLog mutations(topology, tracer);
  auto check_lifecycle = [&] {
    if (lifecycle && DivergesFromScratch(*lifecycle, lifecycle->paths())) {
      result.FailCheck("mutated plan diverges from a from-scratch plan");
    }
  };

  ReadingGenerator readings(kNodes, SubSeed(options.seed, 3));
  Timings round_ms;
  Timings quiet_ms;
  Timings replan_ms;
  double energy = 0.0;
  int64_t pairs = 0;
  int64_t completed = 0;
  double state_entries = 0.0;
  RoundCounters counters;
  ControlCounters control;
  for (int episode = 0; episode < episodes; ++episode) {
    // Persistent faults only: transient faults would add events for every
    // round, and FaultSchedule scans its events on every delivery query (see
    // README.md). Per-attempt loss comes from the channel's pure hash.
    FaultScheduleOptions fault_options;
    fault_options.rounds = kEpisodeRounds;
    fault_options.transient_link_fraction = 0.0;
    fault_options.persistent_link_failures = 4;
    fault_options.node_deaths = 3;
    fault_options.link_heals = 2;
    fault_options.node_recoveries = 2;
    fault_options.recovery_delay_rounds = kEpisodeRounds / 8;
    fault_options.seed = SubSeed(options.seed, 1000 + 2 * episode);
    const FaultSchedule faults =
        FaultSchedule::Generate(topology, protected_nodes, fault_options);
    ChannelOptions channel_options;
    channel_options.good_loss = 0.03;
    channel_options.bad_loss = 0.6;
    channel_options.p_enter_bad = 0.02;
    channel_options.p_exit_bad = 0.3;
    channel_options.seed = SubSeed(options.seed, 1001 + 2 * episode);
    const ChannelModel channel(channel_options);

    std::unique_ptr<SelfHealingRuntime> runtime = construct();
    runtime->set_metrics(&registry);
    // The workload each plan epoch was compiled for: a value reported under
    // epoch e is checked against epoch e's query.
    std::map<uint32_t, Workload> epoch_workloads;
    epoch_workloads[runtime->base_epoch()] = runtime->current_workload();

    for (int round = 0; round < kEpisodeRounds; ++round) {
      readings.Advance(1.0);
      LossyLinkModel physical;
      physical.attempt_delivers = [&faults, &channel, round](
                                      NodeId from, NodeId to, int attempt) {
        return faults.AttemptDelivers(round, from, to, attempt) &&
               channel.AttemptDelivers(round, from, to, attempt);
      };
      physical.node_alive = [&faults, round](NodeId n) {
        return faults.NodeAliveAt(round, n);
      };
      // Traced runs replay the round's data plane on a copy taken before
      // the round, after the timed round so the replay does not warm its
      // caches.
      std::optional<RuntimeNetwork> data_plane;
      if (options.trace && round > 0) data_plane = runtime->network();
      SelfHealingRoundResult r;
      const double reference = PrepareTimedOperation();
      const Clock::time_point start = Clock::now();
      {
        ScopedSpan span(tracer, "sim.round");
        r = runtime->RunRound(round, readings.values(), physical);
      }
      const double ms = MsBetween(start, Clock::now());
      if (data_plane) {
        data_plane->set_metrics(nullptr);
        ScopedSpan diagnostic(tracer, "diag.data_plane");
        ScopedSpan span(tracer, "runtime.lossy_round");
        data_plane->RunRoundLossy(readings.values(), physical);
      }

      // Every complete destination must equal its epoch's query evaluated
      // over exactly the sources its coverage report names.
      bool ok = true;
      for (const Task& task : workload.tasks) {
        const NodeId d = task.destination;
        auto cov = r.data.destination_coverage.find(d);
        if (cov == r.data.destination_coverage.end()) continue;
        ++pairs;
        auto value = r.data.destination_values.find(d);
        if (!cov->second.complete ||
            value == r.data.destination_values.end()) {
          result.digest.Add(0);
          continue;
        }
        ++completed;
        const uint32_t epoch = r.data.destination_epochs.at(d);
        auto w = epoch_workloads.find(epoch);
        std::unordered_map<NodeId, double> inputs;
        for (NodeId source : cov->second.sources) {
          inputs[source] = readings.values()[source];
        }
        bool match = false;
        if (w != epoch_workloads.end() && cov->second.exact_known &&
            w->second.functions.Contains(d)) {
          try {
            match = ValueMatches(value->second,
                                 w->second.functions.Get(d).Direct(inputs)) &&
                    int(inputs.size()) == cov->second.expected;
          } catch (const std::out_of_range&) {
            match = false;  // The query reads a source the report lacks.
          }
        }
        ok = ok && match;
        result.digest.AddDouble(value->second);
        result.digest.Add(epoch);
      }
      result.RecordOperation(ok, "complete destination differs from direct "
                                 "evaluation over its covered sources");
      result.digest.AddDouble(r.data.energy_mj);
      result.digest.Add(static_cast<uint64_t>(r.data.payload_bytes));
      result.digest.Add(static_cast<uint64_t>(r.data.final_tick));
      result.digest.Add(static_cast<uint64_t>(r.probe_transmissions));
      result.digest.Add(static_cast<uint64_t>(r.control_payload_bytes));
      result.digest.Add(r.base_epoch);

      if (r.replanned) {
        epoch_workloads[r.base_epoch] = runtime->current_workload();
        ++control.replans;
      }
      // Each episode's first round is its warm-up: checked, not timed.
      if (round > 0) {
        round_ms.Add(ms, reference);
        (r.replanned ? replan_ms : quiet_ms).Add(ms, reference);
        energy += r.data.energy_mj;
        counters.Add(r.data);
        ++control.rounds;
        control.probes += static_cast<double>(r.probe_transmissions);
        control.control_hop_attempts +=
            static_cast<double>(r.control_hop_attempts);
        control.control_bytes += static_cast<double>(r.control_payload_bytes);
      }
      // Interleave the other timed operations evenly over the rounds.
      if (round % kSetupEvery == kSetupEvery - 1) construct();
      for (int m = 0; m < kMutationsPerRound; ++m) {
        if (next_mutation == churn.size()) {
          check_lifecycle();
          lifecycle = std::make_unique<QueryLifecycleManager>(topology,
                                                              workload, base);
          churn = SourceChurn(topology, workload, kMutationsPerManager,
                              SubSeed(options.seed, 100 + managers++));
          next_mutation = 0;
        }
        if (next_mutation < churn.size()) {
          mutations.Apply(*lifecycle, churn[next_mutation++], result);
        }
      }
    }
    const int64_t entries = runtime->compiled().ComputeStateTotals().total();
    result.digest.Add(static_cast<uint64_t>(entries));
    state_entries += static_cast<double>(entries) / episodes;
  }
  if (replan_ms.size() == 0) {
    result.FailCheck("heal_1k scenario never replanned");
  }
  check_lifecycle();

  AddTimed(result, "setup_s", setup_ms, 1e-3, "s");
  AddTimed(result, "round_ms", round_ms, 1.0, "ms");
  AddTimed(result, "replan_round_ms", replan_ms, 1.0, "ms");
  AddTimed(result, "mutation_ms", mutations.ms, 1.0, "ms");
  AddEndToEnd(result, "peak_rss_mb", PeakRssMb(), "MiB");
  AddEndToEnd(result, "energy_mj_per_round", energy / round_ms.size(), "mJ");
  AddEndToEnd(result, "state_entries", state_entries, "count");
  AddEndToEnd(result, "complete_share", double(completed) / pairs, "ratio");
  AddEndToEnd(result, "delta_bytes_per_mutation",
              double(mutations.delta_bytes) / std::max(mutations.commits, 1),
              "B");
  result.info["nodes"] = kNodes;
  result.info["episodes"] = episodes;
  result.info["rounds"] = double(round_ms.size());
  result.info["replan_rounds"] = control.replans;
  result.info["mutations"] = double(mutations.ms.size());
  result.info["commits"] = mutations.commits;
  result.info["replan_excess_ms"] =
      Median(replan_ms.ms) - Median(quiet_ms.ms);

  if (options.trace) {
    RunLayerProbe(topology, workload, tracer, result);
    counters.Emit(kNodes, result);
    mutations.counters.Emit(result);
    control.Emit(result);
    result.per_layer.push_back(
        {"sim.quiet_round_ms", Median(quiet_ms.ms), "ms"});
  }
  return result;
}

// ---------------------------------------------------------------- churn_10k

RunResult RunChurn(const Options& options, Tracer& tracer) {
  UseReference(ReferenceKind::kWithMemory);
  constexpr int kNodes = 10000;
  // The run is a series of episodes, each a fresh manager over the initial
  // queries followed by its own churn schedule of kEventsPerEpisode events.
  // Admissions and retirements random-walk the catalog size; restarting
  // bounds the walk, so the per-mutation cost and the plan-derived outputs
  // do not drift with the seed. Each episode's construction is one set-up
  // sample.
  constexpr int kEventsPerEpisode = 30;
  // After each set-up, the initial plan is installed in a runtime and run
  // for kRoundsPerInstall clean rounds after a warm-up. Round cost follows
  // the plan's longest route, so rounds on the churned plans (which differ
  // per seed) moved the median round with the seed.
  constexpr int kRoundsPerInstall = 10;
  constexpr int kCheckEvery = 50;
  const int episodes = std::max(2, 3 * options.seconds / 4);

  RunResult result;
  const Topology topology = MakeTopology(kNodes);
  const Workload initial =
      MakeWorkload(topology, 32, 8, SourceSelection::kUniform);
  const NodeId base = PickBaseStation(topology);

  Timings setup_ms;
  std::unique_ptr<QueryLifecycleManager> manager;

  const LossyLinkModel clean = CleanLinks();
  ReadingGenerator readings(kNodes, SubSeed(options.seed, 3));
  Timings round_ms;
  double energy = 0.0;
  int64_t pairs = 0;
  int64_t completed = 0;
  RoundCounters counters;
  // Installs the current plan and runs clean rounds on it, checked against
  // direct evaluation.
  auto run_rounds = [&] {
    const Workload& current = manager->workload();
    std::optional<RuntimeNetwork> network;
    {
      ScopedSpan span(tracer, "runtime.install");
      network.emplace(manager->compiled(), current.functions);
    }
    for (int r = 0; r <= kRoundsPerInstall; ++r) {
      readings.Advance(1.0);
      RuntimeNetwork::LossyResult round;
      const double reference = PrepareTimedOperation();
      const Clock::time_point start = Clock::now();
      if (r == 0) {
        round = network->RunRoundLossy(readings.values(), clean);
      } else {
        ScopedSpan span(tracer, "runtime.lossy_round");
        round = network->RunRoundLossy(readings.values(), clean);
      }
      const double ms = MsBetween(start, Clock::now());
      result.RecordOperation(
          CheckCleanRound(current, readings.values(), round, result.digest),
          "churn round values differ from direct evaluation");
      if (r == 0) continue;  // Warm-up round after each install.
      round_ms.Add(ms, reference);
      energy += round.energy_mj;
      pairs += static_cast<int64_t>(current.tasks.size());
      completed += static_cast<int64_t>(round.destination_values.size());
      counters.Add(round);
    }
  };

  MutationLog mutations(topology, tracer);
  mutations.check_every = kCheckEvery;
  double state_entries = 0.0;
  for (int episode = 0; episode < episodes; ++episode) {
    ChurnScheduleOptions churn_options;
    churn_options.rounds = kEventsPerEpisode / 4 + 2;
    churn_options.admissions = kEventsPerEpisode / 4;
    churn_options.retirements = kEventsPerEpisode / 4;
    churn_options.source_adds = kEventsPerEpisode / 4;
    churn_options.source_removes = kEventsPerEpisode -
                                   3 * (kEventsPerEpisode / 4);
    churn_options.sources_per_admission = 8;
    churn_options.seed = SubSeed(options.seed, 100 + episode);
    const ChurnSchedule schedule =
        ChurnSchedule::Generate(topology, initial, {base}, churn_options);

    manager.reset();
    const double reference = PrepareTimedOperation();
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "lifecycle.setup");
      manager =
          std::make_unique<QueryLifecycleManager>(topology, initial, base);
    }
    setup_ms.Add(MsBetween(start, Clock::now()), reference);
    run_rounds();

    for (const ChurnEvent& event : schedule.events()) {
      mutations.Apply(*manager, event, result);
    }
    // Each episode's final plan must equal a from-scratch plan; the last
    // one is checked over freshly built routing as well.
    if (DivergesFromScratch(*manager, manager->paths()) ||
        (episode + 1 == episodes &&
         DivergesFromScratch(*manager, PathSystem(topology)))) {
      result.FailCheck("final plan diverges from a from-scratch plan");
    }
    const int64_t entries = manager->compiled().ComputeStateTotals().total();
    result.digest.Add(static_cast<uint64_t>(entries));
    state_entries += static_cast<double>(entries) / episodes;
  }

  AddTimed(result, "setup_s", setup_ms, 1e-3, "s");
  AddTimed(result, "round_ms", round_ms, 1.0, "ms");
  // No churn round replans: a replan round here is an ordinary round.
  AddTimed(result, "replan_round_ms", round_ms, 1.0, "ms");
  AddTimed(result, "mutation_ms", mutations.ms, 1.0, "ms");
  AddEndToEnd(result, "peak_rss_mb", PeakRssMb(), "MiB");
  AddEndToEnd(result, "energy_mj_per_round", energy / round_ms.size(), "mJ");
  AddEndToEnd(result, "state_entries", state_entries, "count");
  AddEndToEnd(result, "complete_share", double(completed) / pairs, "ratio");
  AddEndToEnd(result, "delta_bytes_per_mutation",
              double(mutations.delta_bytes) / std::max(mutations.commits, 1),
              "B");
  result.info["nodes"] = kNodes;
  result.info["episodes"] = episodes;
  result.info["mutations"] = double(mutations.ms.size());
  result.info["commits"] = mutations.commits;
  result.info["rounds"] = double(round_ms.size());

  if (options.trace) {
    RunLayerProbe(topology, initial, tracer, result);
    counters.Emit(kNodes, result);
    mutations.counters.Emit(result);
    ControlCounters{}.Emit(result);
    result.per_layer.push_back(
        {"sim.quiet_round_ms", Median(round_ms.ms), "ms"});
  }
  return result;
}

}  // namespace perfbench
