// Fault-recovery experiment (paper section 3 / Corollary 1): how local is
// re-planning after persistent failures, and what does transient loss cost
// the ack/retry runtime? Part one sweeps the number of persistent fault
// events and reports the fraction of per-edge solutions the incremental
// re-plan reuses (always validated against a from-scratch plan). Part two
// sweeps the per-attempt drop probability on flaky links and reports the
// retry/energy overhead of a lossy round relative to a clean one. Part
// three runs the oracle-free self-healing loop and sweeps the drop
// probability of the *dissemination* traffic itself, reporting detection
// latency (rounds from fault to re-plan activation) and control-plane
// overhead; results also land in BENCH_fault_recovery.json.

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "harness.h"
#include "sim/fault_schedule.h"
#include "sim/self_healing.h"

int main(int argc, char** argv) {
  using namespace m2m;
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 10;
  spec.sources_per_destination = 8;
  spec.seed = 4100;
  Workload workload = GenerateWorkload(topology, spec);
  std::vector<NodeId> destinations;
  for (const Task& task : workload.tasks) {
    destinations.push_back(task.destination);
  }

  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);

  // Part 1: re-plan locality vs failure burst size.
  Table locality({"fault_events", "edges", "reused", "reused_pct",
                  "divergences"});
  for (int events : {1, 2, 4, 8}) {
    FaultScheduleOptions options;
    options.rounds = 2;  // All events land in round 1.
    options.transient_link_fraction = 0.0;
    options.persistent_link_failures = events;
    options.node_deaths = 0;  // Keep the workload fixed across rows.
    options.seed = 900 + events;
    FaultSchedule schedule =
        FaultSchedule::Generate(topology, destinations, options);

    Topology masked = Topology::WithFailures(
        topology, schedule.FailedLinksThrough(options.rounds), {});
    PathSystem masked_paths(masked);
    UpdateStats stats;
    GlobalPlan patched = ReplanForWorkload(plan, masked_paths, workload.tasks,
                                           workload.functions, &stats);
    GlobalPlan fresh =
        BuildPlan(patched.forest_ptr(), workload.functions, plan.options());
    size_t divergences = FindPlanDivergence(patched, fresh).size();

    locality.AddRow({std::to_string(events), std::to_string(stats.edges_total),
                     std::to_string(stats.edges_reused),
                     Table::Num(stats.edges_total == 0
                                    ? 0.0
                                    : 100.0 * stats.edges_reused /
                                          stats.edges_total),
                     std::to_string(divergences)});
  }
  bench::EmitTable("fault_recovery_locality",
                   "GDI topology, 10 destinations x 8 sources; persistent "
                   "link failures, incremental vs from-scratch re-plan",
                   locality);

  // Part 2: lossy-round overhead vs transient drop probability.
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);
  ReadingGenerator readings(topology.node_count(), 1234);
  RuntimeNetwork clean(compiled, workload.functions);
  RuntimeNetwork::LossyResult reference = clean.RunRound(readings.values());

  Table overhead({"drop_prob", "attempts", "retx", "dup", "abandoned",
                  "energy_mJ", "energy_x", "ticks"});
  for (double drop : {0.0, 0.1, 0.3, 0.5}) {
    FaultScheduleOptions options;
    options.rounds = 2;
    options.transient_link_fraction = 1.0;  // Every link flaky.
    options.transient_drop_probability = drop;
    options.persistent_link_failures = 0;
    options.node_deaths = 0;
    options.seed = 4242;
    FaultSchedule schedule =
        FaultSchedule::Generate(topology, destinations, options);

    RuntimeNetwork network(compiled, workload.functions);
    LossyLinkModel links;
    links.attempt_delivers = [&schedule](NodeId from, NodeId to,
                                         int attempt) {
      return schedule.AttemptDelivers(1, from, to, attempt);
    };
    RetryPolicy retry;
    retry.max_attempts = 8;
    RuntimeNetwork::LossyResult lossy =
        network.RunRoundLossy(readings.values(), links, retry);

    overhead.AddRow(
        {Table::Num(drop), std::to_string(lossy.attempts),
         std::to_string(lossy.retransmissions),
         std::to_string(lossy.duplicates),
         std::to_string(lossy.messages_abandoned),
         Table::Num(lossy.energy_mj),
         Table::Num(reference.energy_mj == 0.0
                        ? 0.0
                        : lossy.energy_mj / reference.energy_mj),
         std::to_string(lossy.final_tick)});
  }
  bench::EmitTable("fault_recovery_overhead",
                   "GDI topology, all links flaky for one round; "
                   "stop-and-wait ack/retry, 8 attempts, clean-round energy "
                   "baseline " +
                       Table::Num(reference.energy_mj) + " mJ",
                   overhead);

  // Part 3: the self-healing loop end to end — no oracle, detection via
  // heartbeats + probes, repair via epoch-versioned dissemination — under
  // increasingly hostile loss on the dissemination traffic itself.
  Table healing({"drop_prob", "replans", "detect_avg_rounds",
                 "detect_max_rounds", "ack_lag_rounds", "probe_tx",
                 "ctrl_attempts", "ctrl_bytes", "epoch_rejected"});
  std::ofstream json("BENCH_fault_recovery.json");
  json << "{\n  \"experiment\": \"fault_recovery_self_healing\",\n"
       << "  \"setup\": \"GDI topology, 5 destinations x 5 sources, 2 "
          "persistent link failures + 1 node death; detection threshold "
       << DetectorOptions{}.suspicion_threshold << " rounds\",\n"
       << "  \"rows\": [\n";

  WorkloadSpec healing_spec;
  healing_spec.destination_count = 5;
  healing_spec.sources_per_destination = 5;
  healing_spec.seed = 4300;
  Workload healing_workload = GenerateWorkload(topology, healing_spec);
  NodeId base = PickBaseStation(topology);
  std::vector<NodeId> protected_nodes;
  for (const Task& task : healing_workload.tasks) {
    protected_nodes.push_back(task.destination);
  }
  if (std::find(protected_nodes.begin(), protected_nodes.end(), base) ==
      protected_nodes.end()) {
    protected_nodes.push_back(base);
  }

  // One registry across all control-drop rows: counters therefore total
  // the whole sweep, which is what the JSON's detection/dissemination
  // sections (and the CI smoke check) report.
  obs::MetricsRegistry metrics;
  const std::vector<double> control_drops = {0.0, 0.25, 0.5, 0.75};
  for (size_t row = 0; row < control_drops.size(); ++row) {
    const double control_drop = control_drops[row];
    FaultScheduleOptions options;
    options.rounds = 5;
    options.transient_link_fraction = 0.06;
    options.transient_drop_probability = 0.5;
    options.persistent_link_failures = 2;
    options.node_deaths = 1;
    options.seed = 4400;
    FaultSchedule schedule =
        FaultSchedule::Generate(topology, protected_nodes, options);

    SelfHealingRuntime runtime(topology, healing_workload, base);
    runtime.set_metrics(&metrics);
    // Deterministic Bernoulli(control_drop) on the control namespaces
    // (reports 2000+, dissemination 3000+, install acks 4000+).
    auto control_dropped = [control_drop](int round, NodeId from, NodeId to,
                                          int attempt) {
      uint64_t h = static_cast<uint64_t>(round) * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<uint64_t>(from) << 32) ^
           (static_cast<uint64_t>(to) << 16) ^ static_cast<uint64_t>(attempt);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdull;
      h ^= h >> 33;
      return static_cast<double>(h % 10000) < control_drop * 10000.0;
    };

    const int total_rounds = options.rounds + 30;
    // First round each persistent event is reflected in the base station's
    // beliefs, then the round its repair epoch opened.
    std::map<int, int> event_first_believed;  // event index -> round.
    int64_t probe_tx = 0, ctrl_attempts = 0, ctrl_bytes = 0;
    int64_t epoch_rejected = 0;
    int replans = 0;
    int last_replan_round = -1;
    int last_pending_round = -1;
    for (int round = 0; round < total_rounds; ++round) {
      ReadingGenerator round_readings(
          topology.node_count(), 7000 + static_cast<uint64_t>(round));
      LossyLinkModel physical;
      physical.attempt_delivers = [&schedule, &control_dropped, round](
                                      NodeId from, NodeId to, int attempt) {
        if (!schedule.AttemptDelivers(round, from, to, attempt)) return false;
        return !(attempt >= 2000 && control_dropped(round, from, to, attempt));
      };
      physical.node_alive = [&schedule, round](NodeId n) {
        return schedule.NodeAliveAt(round, n);
      };
      SelfHealingRoundResult r =
          runtime.RunRound(round, round_readings.values(), physical);
      probe_tx += r.probe_transmissions;
      ctrl_attempts += r.control_hop_attempts;
      ctrl_bytes += r.control_payload_bytes;
      epoch_rejected += r.data.epoch_rejected;
      if (r.replanned) {
        ++replans;
        last_replan_round = round;
      }
      if (r.pending_installs > 0) last_pending_round = round;

      const auto believed_links = runtime.ledger().believed_failed_links();
      const auto believed_dead = runtime.ledger().believed_dead();
      for (size_t e = 0; e < schedule.events().size(); ++e) {
        const FaultEvent& event = schedule.events()[e];
        if (event.type == FaultType::kTransientLink) continue;
        if (event_first_believed.contains(static_cast<int>(e))) continue;
        bool believed = false;
        if (event.type == FaultType::kPersistentLink) {
          std::pair<NodeId, NodeId> link{std::min(event.a, event.b),
                                         std::max(event.a, event.b)};
          believed = std::find(believed_links.begin(), believed_links.end(),
                               link) != believed_links.end();
        } else {
          believed = std::find(believed_dead.begin(), believed_dead.end(),
                               event.a) != believed_dead.end();
        }
        if (believed) event_first_believed[static_cast<int>(e)] = round;
      }
    }

    // Detection latency: fault round -> the round the base believed it
    // (the re-plan activates the same round it is believed).
    double detect_sum = 0.0;
    int detect_max = 0, detected = 0;
    for (size_t e = 0; e < schedule.events().size(); ++e) {
      const FaultEvent& event = schedule.events()[e];
      if (event.type == FaultType::kTransientLink) continue;
      auto it = event_first_believed.find(static_cast<int>(e));
      if (it == event_first_believed.end()) continue;
      const int latency = it->second - event.round;
      detect_sum += latency;
      detect_max = std::max(detect_max, latency);
      ++detected;
    }
    const double detect_avg = detected == 0 ? 0.0 : detect_sum / detected;
    // Rounds from the last re-plan until every affected node acked.
    const int ack_lag = last_replan_round < 0
                            ? 0
                            : std::max(0, last_pending_round + 1 -
                                              last_replan_round);

    healing.AddRow({Table::Num(control_drop), std::to_string(replans),
                    Table::Num(detect_avg), std::to_string(detect_max),
                    std::to_string(ack_lag), std::to_string(probe_tx),
                    std::to_string(ctrl_attempts), std::to_string(ctrl_bytes),
                    std::to_string(epoch_rejected)});
    json << "    {\"control_drop_prob\": " << Table::Num(control_drop)
         << ", \"replans\": " << replans
         << ", \"detection_latency_avg_rounds\": " << Table::Num(detect_avg)
         << ", \"detection_latency_max_rounds\": " << detect_max
         << ", \"dissemination_ack_lag_rounds\": " << ack_lag
         << ", \"probe_transmissions\": " << probe_tx
         << ", \"control_hop_attempts\": " << ctrl_attempts
         << ", \"control_payload_bytes\": " << ctrl_bytes
         << ", \"epoch_rejected_packets\": " << epoch_rejected << "}"
         << (row + 1 < control_drops.size() ? "," : "") << "\n";
  }
  // Sweep-wide detection / dissemination counters from the metrics
  // registry (totals across every control-drop row above).
  json << "  ],\n  \"detection\": {\n"
       << "    \"probe_transmissions\": "
       << metrics.Total("heal.probe_transmissions") << ",\n"
       << "    \"probe_confirmations\": "
       << metrics.Total("heal.probe_confirmations") << ",\n"
       << "    \"suspicions_raised\": "
       << metrics.Total("heal.suspicions_raised") << "\n"
       << "  },\n  \"dissemination\": {\n"
       << "    \"control_hop_attempts\": "
       << metrics.Total("heal.control_hop_attempts") << ",\n"
       << "    \"control_hops\": " << metrics.Total("heal.control_hops")
       << ",\n"
       << "    \"control_messages_delivered\": "
       << metrics.Total("heal.control_messages_delivered") << ",\n"
       << "    \"control_payload_bytes\": "
       << metrics.Total("heal.control_payload_bytes") << ",\n"
       << "    \"replans\": " << metrics.Total("heal.replans") << ",\n"
       << "    \"images_queued\": " << metrics.Total("heal.images_queued")
       << ",\n"
       << "    \"bumps_queued\": " << metrics.Total("heal.bumps_queued")
       << ",\n"
       << "    \"replan_edges_reused\": "
       << metrics.Total("heal.replan_edges_reused") << ",\n"
       << "    \"replan_edges_reoptimized\": "
       << metrics.Total("heal.replan_edges_reoptimized") << ",\n"
       << "    \"image_installs\": " << metrics.Total("runtime.image_installs")
       << ",\n"
       << "    \"image_install_bytes\": "
       << metrics.Total("runtime.image_install_bytes") << "\n"
       << "  }\n}\n";
  bench::MaybeWriteMetricsJson(argc, argv, metrics);
  bench::EmitTable(
      "fault_recovery_self_healing",
      "GDI topology, oracle-free self-healing loop; extra Bernoulli drop on "
      "all control traffic (probes excluded), detection threshold " +
          std::to_string(DetectorOptions{}.suspicion_threshold) +
          " missed rounds; JSON copy in BENCH_fault_recovery.json",
      healing);
  return 0;
}
