// Heap-allocation bounds for the compile and for one lifecycle commit.
//
// A counting global operator new pins how many allocations
// CompiledPlan::Compile makes: the compiled plan is a fixed set of flat
// arrays (message schedule, four node tables, their offsets), so the count
// must not grow with nodes, edges or units. A warm QueryLifecycleManager
// commit is bounded as a whole: the replan, the Corollary 1 and Theorem 1
// checks, the compile and the image diff together.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "lifecycle/lifecycle.h"
#include "plan/messaging.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "sim/base_station.h"
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
// std::stable_sort and std::inplace_merge (the forest update) take their
// buffers from the nothrow forms; they must pair with the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace m2m {
namespace {

// Upper bound on the allocations of one Compile, whatever the plan's size.
constexpr int64_t kCompileAllocationBound = 48;

// Upper bound on the allocations of one warm add-source or remove-source
// commit on the 1000-node 16 x 8 deployment below.
constexpr int64_t kCommitAllocationBound = 4000;

Workload UniformWorkload(const Topology& topology, int destinations,
                         int sources, uint64_t seed) {
  WorkloadSpec spec;
  spec.destination_count = destinations;
  spec.sources_per_destination = sources;
  spec.selection = SourceSelection::kUniform;
  spec.seed = seed;
  return GenerateWorkload(topology, spec);
}

// Allocations of one Compile of a fresh copy of the plan built for
// `node_count` nodes and 16 x 8 uniform sources; the plan must take the
// per-edge fast path (one message per edge with units).
int64_t CountCompile(int node_count) {
  const Topology topology = MakeScalingSeries({node_count}, 3).front();
  const Workload workload = UniformWorkload(topology, 16, 8, 7);
  const PathSystem paths(topology);
  GlobalPlan plan =
      BuildPlan(std::make_shared<MulticastForest>(paths, workload.tasks),
                workload.functions);
  const int64_t before = allocations;
  const CompiledPlan compiled =
      CompiledPlan::Compile(std::move(plan), workload.functions);
  const int64_t counted = allocations - before;

  std::set<int> edges_with_units;
  for (const MessageUnit& unit : compiled.schedule().units()) {
    edges_with_units.insert(unit.edge_index);
  }
  EXPECT_EQ(compiled.schedule().message_count(),
            static_cast<int64_t>(edges_with_units.size()))
      << "the plan should take the per-edge fast path";
  std::printf("%d nodes, %zu units: %lld allocations per compile\n",
              node_count, compiled.schedule().units().size(),
              static_cast<long long>(counted));
  return counted;
}

TEST(CommitAllocations, CompileAllocationsDoNotGrowWithThePlan) {
  const int64_t small = CountCompile(1000);
  const int64_t large = CountCompile(4000);
  EXPECT_LE(small, kCompileAllocationBound);
  EXPECT_LE(large, kCompileAllocationBound);
}

// A node that is no destination and not among `sources`.
NodeId FreshSource(const Workload& workload,
                   const std::vector<NodeId>& sources) {
  for (NodeId n = 1;; ++n) {
    bool used =
        std::find(sources.begin(), sources.end(), n) != sources.end();
    for (const Task& task : workload.tasks) {
      used = used || task.destination == n;
    }
    if (!used) return n;
  }
}

TEST(CommitAllocations, WarmLifecycleCommitStaysBounded) {
  const Topology topology = MakeScalingSeries({1000}, 3).front();
  const Workload workload = UniformWorkload(topology, 16, 8, 7);
  QueryLifecycleManager manager(topology, workload,
                                PickBaseStation(topology));
  const NodeId d = workload.tasks[0].destination;
  const NodeId source = FreshSource(workload, workload.tasks[0].sources);
  // One add/remove pair warms every buffer a commit may keep.
  ASSERT_TRUE(manager.AddSource(d, source, 1.0).decision.admitted);
  ASSERT_TRUE(manager.RemoveSource(d, source).decision.admitted);

  int64_t counted[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const int64_t before = allocations;
    {
      const MutationResult result = i == 0
                                        ? manager.AddSource(d, source, 1.0)
                                        : manager.RemoveSource(d, source);
      ASSERT_TRUE(result.decision.admitted);
    }
    counted[i] = allocations - before;
  }
  std::printf("add-source commit: %lld allocations, remove-source: %lld\n",
              static_cast<long long>(counted[0]),
              static_cast<long long>(counted[1]));
  EXPECT_LE(counted[0], kCommitAllocationBound);
  EXPECT_LE(counted[1], kCommitAllocationBound);
}

}  // namespace
}  // namespace m2m
