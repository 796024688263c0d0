// Heap-allocation bounds for warm lossy rounds.
//
// A counting global operator new pins how many allocations one
// RunRoundLossy call makes once the network has run a round, so work that
// scales with packets (an agenda entry, a payload buffer, a result hop) is
// caught if it starts allocating per packet again. What remains is per
// round and per destination: the result's maps and coverage lists, and the
// round's few growable buffers.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/channel.h"
#include "runtime/network.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace {

// Allocations since the process started; the tests read differences.
int64_t allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace m2m {
namespace {

// 1000 nodes, 16 destinations x 8 uniform sources.
struct Deployment {
  Deployment() : topology(MakeScalingSeries({1000}, 3).front()) {
    WorkloadSpec spec;
    spec.destination_count = 16;
    spec.sources_per_destination = 8;
    spec.selection = SourceSelection::kUniform;
    spec.seed = 7;
    workload = GenerateWorkload(topology, spec);
    PathSystem paths(topology);
    GlobalPlan plan = BuildPlan(
        std::make_shared<MulticastForest>(paths, workload.tasks),
        workload.functions);
    compiled = std::make_unique<CompiledPlan>(
        CompiledPlan::Compile(plan, workload.functions));
    readings.resize(topology.node_count());
    for (size_t i = 0; i < readings.size(); ++i) {
      readings[i] = 10.0 + static_cast<double>(i % 17);
    }
  }
  Topology topology;
  Workload workload;
  std::unique_ptr<CompiledPlan> compiled;
  std::vector<double> readings;
};

struct Counted {
  int64_t allocations = 0;
  int64_t attempts = 0;
  int64_t retransmissions = 0;
  int64_t spontaneous_duplicates = 0;
};

// Runs one warm-up round, then counts the allocations of the next one
// (including the destruction of its result).
Counted CountWarmRound(const Deployment& deployment,
                       const LossyLinkModel& warm,
                       const LossyLinkModel& links) {
  RuntimeNetwork network(*deployment.compiled, deployment.workload.functions);
  network.RunRoundLossy(deployment.readings, warm);
  Counted counted;
  const int64_t before = allocations;
  {
    const RuntimeNetwork::LossyResult result =
        network.RunRoundLossy(deployment.readings, links);
    counted.attempts = result.attempts;
    counted.retransmissions = result.retransmissions;
    counted.spontaneous_duplicates = result.spontaneous_duplicates;
  }
  counted.allocations = allocations - before;
  std::printf("%lld allocations for %lld data attempts\n",
              static_cast<long long>(counted.allocations),
              static_cast<long long>(counted.attempts));
  return counted;
}

LossyLinkModel CleanLinks() {
  LossyLinkModel clean;
  clean.attempt_delivers = [](NodeId, NodeId, int) { return true; };
  return clean;
}

TEST(LossyRoundAllocations, CleanRoundAllocatesLessThanHalfPerAttempt) {
  const Deployment deployment;
  const LossyLinkModel clean = CleanLinks();
  const Counted counted = CountWarmRound(deployment, clean, clean);
  ASSERT_GT(counted.attempts, 300);
  EXPECT_LE(counted.allocations * 2, counted.attempts)
      << counted.allocations << " allocations for " << counted.attempts
      << " data attempts";
}

TEST(LossyRoundAllocations, GilbertElliottRoundWithRetries) {
  const Deployment deployment;
  ChannelOptions options;
  options.good_loss = 0.03;
  options.bad_loss = 0.6;
  options.p_enter_bad = 0.02;
  options.p_exit_bad = 0.3;
  options.seed = 5;
  const ChannelModel channel(options);
  const LossyLinkModel warm = channel.Bind(0);
  const LossyLinkModel links = channel.Bind(1);
  const Counted counted = CountWarmRound(deployment, warm, links);
  ASSERT_GT(counted.retransmissions, 10);
  EXPECT_LE(counted.allocations * 2, counted.attempts)
      << counted.allocations << " allocations for " << counted.attempts
      << " data attempts";
}

TEST(LossyRoundAllocations, DelayingAndDuplicatingChannel) {
  const Deployment deployment;
  ChannelOptions options;
  options.duplicate_probability = 0.05;
  options.delay_probability = 0.2;
  options.max_delay_ticks = 4;
  options.seed = 9;
  const ChannelModel channel(options);
  const LossyLinkModel warm = channel.Bind(0);
  const LossyLinkModel links = channel.Bind(1);
  const Counted counted = CountWarmRound(deployment, warm, links);
  ASSERT_GT(counted.spontaneous_duplicates, 10);
  EXPECT_LE(counted.allocations * 2, counted.attempts)
      << counted.allocations << " allocations for " << counted.attempts
      << " data attempts";
}

}  // namespace
}  // namespace m2m
