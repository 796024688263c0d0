#ifndef M2M_CORE_M2M_H_
#define M2M_CORE_M2M_H_

/// Umbrella header for the many-to-many aggregation library
/// (reproduction of Silberstein & Yang, "Many-to-Many Aggregation for
/// Sensor Networks", ICDE 2007).
///
/// Typical usage:
///
///   m2m::Topology topo = m2m::MakeGreatDuckIslandLike();
///   m2m::WorkloadSpec spec;
///   spec.destination_count = 14;
///   spec.sources_per_destination = 20;
///   m2m::Workload wl = m2m::GenerateWorkload(topo, spec);
///   m2m::System system(topo, wl);            // optimal plan
///   auto executor = system.MakeExecutor();
///   m2m::ReadingGenerator gen(topo.node_count(), /*seed=*/7);
///   gen.Advance(1.0);
///   m2m::RoundResult round = executor.RunRound(gen.values());

#include "agg/aggregate_function.h"
#include "core/system.h"
#include "plan/consistency.h"
#include "plan/dissemination.h"
#include "plan/messaging.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "mac/csma.h"
#include "mac/tdma_executor.h"
#include "plan/serialization.h"
#include "plan/tdma.h"
#include "routing/backbone.h"
#include "routing/milestones.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/network.h"
#include "runtime/node_runtime.h"
#include "sim/base_station.h"
#include "sim/energy_model.h"
#include "sim/executor.h"
#include "sim/failure.h"
#include "sim/flood.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

#endif  // M2M_CORE_M2M_H_
