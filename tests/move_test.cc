// Every class that declares its copy operations also declares noexcept
// moves. A user-declared copy suppresses the implicit moves, so without
// them each std::move of these types (a compiled plan handed to a
// shared_ptr, a candidate plan committed) silently deep-copies; a
// container of them would also copy on reallocation.

#include <type_traits>

#include <gtest/gtest.h>

#include "agg/aggregate_function.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/system.h"
#include "flow/max_flow.h"
#include "mac/csma.h"
#include "plan/messaging.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/milestones.h"
#include "routing/multicast.h"
#include "runtime/network.h"
#include "runtime/node_runtime.h"
#include "sim/executor.h"
#include "sim/readings.h"
#include "topology/topology.h"

namespace m2m {
namespace {

template <typename T>
constexpr bool kMovesWithoutThrowing =
    std::is_nothrow_move_constructible_v<T> &&
    std::is_nothrow_move_assignable_v<T>;

TEST(MoveTest, CopyableClassesMoveWithoutThrowing) {
  static_assert(kMovesWithoutThrowing<GlobalPlan>);
  static_assert(kMovesWithoutThrowing<MessageSchedule>);
  static_assert(kMovesWithoutThrowing<CompiledPlan>);
  static_assert(kMovesWithoutThrowing<MulticastForest>);
  static_assert(kMovesWithoutThrowing<FunctionSet>);
  static_assert(kMovesWithoutThrowing<Topology>);
  static_assert(kMovesWithoutThrowing<NodeRuntime>);
  static_assert(kMovesWithoutThrowing<RuntimeNetwork>);
  static_assert(kMovesWithoutThrowing<PlanExecutor>);
  static_assert(kMovesWithoutThrowing<System>);
  static_assert(kMovesWithoutThrowing<Rng>);
  static_assert(kMovesWithoutThrowing<FlagParser>);
  static_assert(kMovesWithoutThrowing<Table>);
  static_assert(kMovesWithoutThrowing<MaxFlow>);
  static_assert(kMovesWithoutThrowing<CsmaSimulator>);
  static_assert(kMovesWithoutThrowing<LinkStabilityModel>);
  static_assert(kMovesWithoutThrowing<ReadingGenerator>);
}

}  // namespace
}  // namespace m2m
