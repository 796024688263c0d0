// Graceful-degradation experiment: what does an adversarial channel cost in
// coverage and goodput, and how fast does a killed-then-recovered node earn
// readmission? Part one sweeps channel severity — base loss x burst length
// x corruption rate — and reports per-destination coverage (the
// contributing-source fraction each aggregate actually accounts for) plus
// goodput of the ack/retry layer. Part two sweeps the detector's probation
// threshold and reports time-to-readmission for a node that dies and
// recovers mid-deployment. Results also land in BENCH_degradation.json.

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "harness.h"
#include "runtime/channel.h"
#include "sim/fault_schedule.h"
#include "sim/self_healing.h"

int main(int argc, char** argv) {
  using namespace m2m;
  const int threads = bench::ApplyParallelismFlags(argc, argv);
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 5;
  spec.sources_per_destination = 5;
  spec.seed = 5100;
  Workload workload = GenerateWorkload(topology, spec);

  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  CompiledPlan compiled = CompiledPlan::Compile(plan, workload.functions);

  obs::MetricsRegistry metrics;
  std::ofstream json("BENCH_degradation.json");
  json << "{\n  \"experiment\": \"degradation\",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"setup\": \"GDI topology, 5 destinations x 5 sources; "
          "Gilbert-Elliott channel, stop-and-wait ack/retry, 8 attempts\",\n"
       << "  \"severity_rows\": [\n";

  // Part 1: coverage and goodput vs channel severity. Burst length is the
  // expected bad-state sojourn 1/p_exit; corruption is per-hop bit-flip
  // probability. Coverage is averaged over destinations and rounds.
  Table severity({"loss", "burst", "corrupt_pct", "attempts", "retx",
                  "corrupt_frames", "abandoned", "complete_pct",
                  "coverage_avg_pct", "goodput_pct"});
  const std::vector<double> losses = {0.0, 0.25, 0.5, 0.75};
  const std::vector<int> bursts = {1, 4, 16};
  const std::vector<double> corruptions = {0.0, 0.005, 0.01};
  const int kRounds = 3;
  bool first_row = true;
  for (double loss : losses) {
    for (int burst : bursts) {
      for (double corrupt : corruptions) {
        ChannelOptions channel_options;
        channel_options.good_loss = loss;
        channel_options.bad_loss = 0.9;
        channel_options.p_enter_bad = burst == 1 ? 0.0 : 0.05;
        channel_options.p_exit_bad = 1.0 / burst;
        channel_options.corrupt_probability = corrupt;
        channel_options.seed =
            5200 + static_cast<uint64_t>(burst) * 100 +
            static_cast<uint64_t>(loss * 100) +
            static_cast<uint64_t>(corrupt * 10000);
        ChannelModel channel(channel_options);
        channel.set_metrics(&metrics);

        RuntimeNetwork network(compiled, workload.functions);
        network.set_metrics(&metrics);
        RetryPolicy retry;
        retry.max_attempts = 8;

        int64_t attempts = 0, retx = 0, corrupt_frames = 0, abandoned = 0;
        int64_t deliveries = 0, duplicates = 0;
        int complete = 0, total_dests = 0;
        double coverage_sum = 0.0;
        for (int round = 0; round < kRounds; ++round) {
          ReadingGenerator readings(
              topology.node_count(), 9000 + static_cast<uint64_t>(round));
          RuntimeNetwork::LossyResult lossy = network.RunRoundLossy(
              readings.values(), channel.Bind(round), retry);
          attempts += lossy.attempts;
          retx += lossy.retransmissions;
          corrupt_frames += lossy.corrupt_frames;
          abandoned += lossy.messages_abandoned;
          deliveries += lossy.deliveries;
          duplicates += lossy.duplicates;
          for (const auto& [destination, cov] :
               lossy.destination_coverage) {
            coverage_sum += cov.coverage;
            complete += cov.complete ? 1 : 0;
            ++total_dests;
          }
        }
        const double complete_pct =
            total_dests == 0 ? 0.0 : 100.0 * complete / total_dests;
        const double coverage_avg =
            total_dests == 0 ? 0.0 : 100.0 * coverage_sum / total_dests;
        // Goodput: fraction of transmission attempts that produced a new
        // (non-duplicate, uncorrupted) accepted delivery.
        const double goodput =
            attempts == 0
                ? 0.0
                : 100.0 * static_cast<double>(deliveries - duplicates) /
                      static_cast<double>(attempts);

        severity.AddRow({Table::Num(loss), std::to_string(burst),
                         Table::Num(100.0 * corrupt),
                         std::to_string(attempts), std::to_string(retx),
                         std::to_string(corrupt_frames),
                         std::to_string(abandoned), Table::Num(complete_pct),
                         Table::Num(coverage_avg), Table::Num(goodput)});
        json << (first_row ? "" : ",\n") << "    {\"loss\": "
             << Table::Num(loss) << ", \"burst_len\": " << burst
             << ", \"corrupt_prob\": " << Table::Num(corrupt)
             << ", \"attempts\": " << attempts
             << ", \"retransmissions\": " << retx
             << ", \"corrupt_frames\": " << corrupt_frames
             << ", \"abandoned\": " << abandoned
             << ", \"complete_pct\": " << Table::Num(complete_pct)
             << ", \"coverage_avg_pct\": " << Table::Num(coverage_avg)
             << ", \"goodput_pct\": " << Table::Num(goodput) << "}";
        first_row = false;
      }
    }
  }
  json << "\n  ],\n";
  bench::EmitTable(
      "degradation_severity",
      "GDI topology; Gilbert-Elliott loss (bad-state loss 0.9, burst = "
      "expected bad sojourn), per-hop corruption; coverage = contributing-"
      "source fraction per destination aggregate",
      severity);

  // Part 2: time-to-readmission vs probation threshold. One node dies and
  // recovers; the ledger's belief lag is measured against both events.
  Table readmission({"probation_rounds", "death_round", "recover_round",
                     "believed_dead_round", "readmitted_round",
                     "detect_rounds", "readmit_rounds", "replans"});
  json << "  \"readmission_rows\": [\n";
  const std::vector<int> probations = {1, 2, 4};
  for (size_t row = 0; row < probations.size(); ++row) {
    const int probation = probations[row];
    std::vector<NodeId> protected_nodes;
    for (const Task& task : workload.tasks) {
      protected_nodes.push_back(task.destination);
    }
    NodeId base = PickBaseStation(topology);
    if (std::find(protected_nodes.begin(), protected_nodes.end(), base) ==
        protected_nodes.end()) {
      protected_nodes.push_back(base);
    }

    // Deterministically probe sub-seeds until the schedule keeps the
    // death/recovery pair (a death too near the end drops its recovery).
    NodeId dead_node = kInvalidNode;
    int death_round = -1;
    int recover_round = -1;
    FaultSchedule schedule;
    for (uint64_t sub = 0; sub < 16 && recover_round < 0; ++sub) {
      FaultScheduleOptions options;
      options.rounds = 16;
      options.transient_link_fraction = 0.0;
      options.persistent_link_failures = 0;
      options.node_deaths = 1;
      options.node_recoveries = 1;
      options.recovery_delay_rounds = 5;
      options.seed = 5300 + sub;
      schedule = FaultSchedule::Generate(topology, protected_nodes, options);
      dead_node = kInvalidNode;
      death_round = -1;
      recover_round = -1;
      for (const FaultEvent& event : schedule.events()) {
        if (event.type == FaultType::kNodeDeath) {
          dead_node = event.a;
          death_round = event.round;
        }
        if (event.type == FaultType::kNodeRecover) {
          recover_round = event.round;
        }
      }
    }

    SelfHealingOptions healing_options;
    healing_options.detector.probation_rounds = probation;
    SelfHealingRuntime runtime(topology, workload, base, healing_options);
    runtime.set_metrics(&metrics);

    int believed_dead_round = -1;
    int readmitted_round = -1;
    int replans = 0;
    const int total_rounds = schedule.options().rounds + 10;
    for (int round = 0; round < total_rounds; ++round) {
      ReadingGenerator readings(topology.node_count(),
                                9500 + static_cast<uint64_t>(round));
      LossyLinkModel physical;
      physical.attempt_delivers = [&schedule, round](NodeId from, NodeId to,
                                                     int attempt) {
        return schedule.AttemptDelivers(round, from, to, attempt);
      };
      physical.node_alive = [&schedule, round](NodeId n) {
        return schedule.NodeAliveAt(round, n);
      };
      SelfHealingRoundResult r =
          runtime.RunRound(round, readings.values(), physical);
      if (r.replanned) ++replans;
      const auto believed_dead = runtime.ledger().believed_dead();
      const bool believed = dead_node != kInvalidNode &&
                            std::find(believed_dead.begin(),
                                      believed_dead.end(),
                                      dead_node) != believed_dead.end();
      if (believed && believed_dead_round < 0) believed_dead_round = round;
      if (!believed && believed_dead_round >= 0 && readmitted_round < 0) {
        readmitted_round = round;
      }
    }

    const int detect_rounds =
        believed_dead_round < 0 ? -1 : believed_dead_round - death_round;
    const int readmit_rounds =
        readmitted_round < 0 ? -1 : readmitted_round - recover_round;
    readmission.AddRow(
        {std::to_string(probation), std::to_string(death_round),
         std::to_string(recover_round), std::to_string(believed_dead_round),
         std::to_string(readmitted_round), std::to_string(detect_rounds),
         std::to_string(readmit_rounds), std::to_string(replans)});
    json << "    {\"probation_rounds\": " << probation
         << ", \"death_round\": " << death_round
         << ", \"recover_round\": " << recover_round
         << ", \"detect_latency_rounds\": " << detect_rounds
         << ", \"readmit_latency_rounds\": " << readmit_rounds
         << ", \"replans\": " << replans << "}"
         << (row + 1 < probations.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"channel\": {\n"
       << "    \"corrupt_frames\": " << metrics.Total("chan.corrupt_frames")
       << ",\n    \"duplicated\": " << metrics.Total("chan.duplicated")
       << ",\n    \"reordered\": " << metrics.Total("chan.reordered")
       << ",\n    \"burst_transitions\": "
       << metrics.Total("chan.burst_transitions")
       << "\n  },\n  \"readmission\": {\n"
       << "    \"readmissions\": " << metrics.Total("readmit.readmissions")
       << ",\n    \"probation_rounds\": "
       << metrics.Total("readmit.probation_rounds")
       << ",\n    \"epoch_reconciliations\": "
       << metrics.Total("readmit.epoch_reconciliations")
       << "\n  },\n  \"coverage\": {\n"
       << "    \"degraded_rounds\": "
       << metrics.Total("coverage.degraded_rounds")
       << ",\n    \"per_destination_sum\": "
       << metrics.HistogramSum("coverage.per_destination") << "\n  }\n}\n";
  bench::MaybeWriteMetricsJson(argc, argv, metrics);
  bench::EmitTable(
      "degradation_readmission",
      "GDI topology; one node dies r~[1,15] and recovers 5 rounds later; "
      "probation threshold swept; readmit latency = rounds from physical "
      "recovery to the base station's belief; JSON copy in "
      "BENCH_degradation.json",
      readmission);
  return 0;
}
