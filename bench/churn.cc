// Query-churn experiment: what does runtime workload churn cost? Sweeps the
// arrival rate (scheduled admissions per churn window, with proportional
// retirements and source mutations) and, per rate, drives the query
// lifecycle manager under two capacity profiles: open (only the Theorem 3
// state bound) and tight (TDMA slots and per-node energy pinned just above
// the initial plan's draw). Reports, per committed delta, the Corollary 1
// replan locality (edges re-optimized vs reused), the dissemination bytes
// the delta ships (full images + 5-byte epoch bumps), and the typed
// admission-rejection rate. Results also land in BENCH_churn.json.

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "lifecycle/admission.h"
#include "lifecycle/churn_schedule.h"
#include "lifecycle/lifecycle.h"
#include "plan/tdma.h"
#include "sim/base_station.h"
#include "sim/battery.h"

int main(int argc, char** argv) {
  using namespace m2m;
  Topology topology = MakeGreatDuckIslandLike();
  WorkloadSpec spec;
  spec.destination_count = 5;
  spec.sources_per_destination = 5;
  spec.seed = 6100;
  Workload initial = GenerateWorkload(topology, spec);
  NodeId base = PickBaseStation(topology);

  // Tight limits are pinned to the INITIAL plan's draw: growth past the
  // deployment's current TDMA round length or hottest node is rejected.
  QueryLifecycleManager baseline(topology, initial, base);
  const TdmaSchedule baseline_tdma =
      BuildTdmaSchedule(baseline.compiled(), topology);
  const std::vector<double> baseline_mj =
      CompiledRoundEnergyMj(baseline.compiled(), EnergyModel{});
  const double baseline_peak_mj =
      *std::max_element(baseline_mj.begin(), baseline_mj.end());

  obs::MetricsRegistry metrics;
  std::ofstream json("BENCH_churn.json");
  json << "{\n  \"experiment\": \"churn\",\n"
       << "  \"setup\": \"GDI topology, 5 destinations x 5 sources seed "
          "workload; ChurnSchedule arrival-rate sweep; open limits = "
          "Theorem 3 only, tight limits = initial TDMA slots + 5% node "
          "energy headroom\",\n"
       << "  \"baseline\": {\"tdma_slots\": " << baseline_tdma.slot_count
       << ", \"peak_node_mj\": " << baseline_peak_mj << "},\n"
       << "  \"rows\": [\n";

  Table table({"rate", "limits", "events", "admitted", "rejected",
               "reject_pct", "edges_reopt_avg", "reuse_pct",
               "delta_bytes_avg", "images", "bumps"});
  const std::vector<int> rates = {1, 2, 4, 8};
  bool first_row = true;
  for (int rate : rates) {
    ChurnScheduleOptions churn_options;
    churn_options.rounds = 4 * rate + 2;
    churn_options.admissions = rate;
    churn_options.retirements = rate / 2;
    churn_options.source_adds = rate;
    churn_options.source_removes = rate / 2;
    churn_options.seed = 6200 + static_cast<uint64_t>(rate);
    ChurnSchedule schedule =
        ChurnSchedule::Generate(topology, initial, {base}, churn_options);

    for (const bool tight : {false, true}) {
      LifecycleOptions options;
      if (tight) {
        options.limits.max_tdma_slots = baseline_tdma.slot_count;
        options.limits.max_node_energy_mj = baseline_peak_mj * 1.05;
      }
      QueryLifecycleManager manager(topology, initial, base, options);
      manager.set_metrics(&metrics);

      int admitted = 0, rejected = 0;
      int64_t edges_reoptimized = 0, edges_total = 0, delta_bytes = 0;
      int images = 0, bumps = 0;
      for (const ChurnEvent& event : schedule.events()) {
        MutationResult result = ApplyChurnEvent(manager, event);
        if (!result.decision.admitted) {
          ++rejected;
          continue;
        }
        ++admitted;
        edges_reoptimized += result.replan.edges_reoptimized;
        edges_total += result.replan.edges_total;
        delta_bytes += result.delta_state_bytes;
        images += result.images_shipped;
        bumps += result.bumps_shipped;
      }

      const int events = static_cast<int>(schedule.events().size());
      const double reject_pct =
          events == 0 ? 0.0 : 100.0 * rejected / events;
      const double reopt_avg =
          admitted == 0 ? 0.0
                        : static_cast<double>(edges_reoptimized) / admitted;
      const double reuse_pct =
          edges_total == 0
              ? 0.0
              : 100.0 *
                    static_cast<double>(edges_total - edges_reoptimized) /
                    static_cast<double>(edges_total);
      const double bytes_avg =
          admitted == 0 ? 0.0
                        : static_cast<double>(delta_bytes) / admitted;
      const std::string limits_name = tight ? "tight" : "open";
      table.AddRow({std::to_string(rate), limits_name,
                    std::to_string(events), std::to_string(admitted),
                    std::to_string(rejected), Table::Num(reject_pct, 1),
                    Table::Num(reopt_avg, 1), Table::Num(reuse_pct, 1),
                    Table::Num(bytes_avg, 1), std::to_string(images),
                    std::to_string(bumps)});
      json << (first_row ? "" : ",\n") << "    {\"rate\": " << rate
           << ", \"limits\": \"" << limits_name
           << "\", \"events\": " << events << ", \"admitted\": " << admitted
           << ", \"rejected\": " << rejected
           << ", \"edges_reoptimized\": " << edges_reoptimized
           << ", \"edges_total\": " << edges_total
           << ", \"delta_state_bytes\": " << delta_bytes
           << ", \"images\": " << images << ", \"bumps\": " << bumps << "}";
      first_row = false;
    }
  }
  json << "\n  ],\n  \"totals\": {\n"
       << "    \"admissions\": " << metrics.Total("qlm.admissions")
       << ",\n    \"rejections\": " << metrics.Total("qlm.rejections")
       << ",\n    \"rejections_tdma\": "
       << metrics.Total("qlm.rejections.tdma_capacity")
       << ",\n    \"rejections_energy\": "
       << metrics.Total("qlm.rejections.energy_budget")
       << ",\n    \"rejections_state_bound\": "
       << metrics.Total("qlm.rejections.state_bound")
       << ",\n    \"replan_edges_reused\": "
       << metrics.Total("qlm.replan_edges_reused")
       << ",\n    \"replan_edges_reoptimized\": "
       << metrics.Total("qlm.replan_edges_reoptimized")
       << ",\n    \"delta_state_bytes\": "
       << metrics.Total("qlm.delta_state_bytes") << "\n  }\n}\n";

  bench::MaybeWriteMetricsJson(argc, argv, metrics);
  bench::EmitTable(
      "churn_arrival_rate",
      "GDI topology; arrival-rate sweep of scheduled query churn through "
      "the lifecycle manager; open vs tight capacity; replan locality, "
      "dissemination delta bytes, typed rejection rate; JSON copy in "
      "BENCH_churn.json",
      table);
  return 0;
}
