// PhysicalLayer, the one composer of the radio: every decision of a bound
// model equals a hand-written composition in the documented order (down
// mask, mobility, faults, channel, base). The order is observable through
// `chan.burst_transitions`, which counts only the attempts the channel is
// asked about. The channel here has no effects, so a bound model's effects
// are the base's.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "runtime/channel.h"
#include "runtime/network.h"
#include "sim/attempt_namespaces.h"
#include "sim/fault_schedule.h"
#include "sim/physical_layer.h"
#include "topology/generator.h"
#include "topology/mobility.h"
#include "topology/topology.h"

namespace m2m {
namespace {

// A few data attempts and one attempt of every other namespace.
const std::vector<int> kAttempts = {
    1, 2, 5, kProbeAttemptBase + 1, kReplyAttemptBase + 4,
    kReportAttemptBase + 17, kImageAttemptBase + 40, kInstallAckAttemptBase + 1};

TEST(PhysicalLayerTest, BindMatchesReferenceCompositionInDocumentedOrder) {
  const Topology topology = MakeGreatDuckIslandLike();
  const int node_count = topology.node_count();
  std::vector<std::pair<NodeId, NodeId>> pairs = {{0, node_count - 1}};
  for (NodeId from = 0; from < node_count; ++from) {
    for (NodeId to : topology.neighbors(from)) pairs.emplace_back(from, to);
  }
  LossyLinkModel custom;  // A base-slot predicate, liveness and effects.
  custom.attempt_delivers = [](NodeId from, NodeId to, int attempt) {
    return (from + to + attempt) % 7 != 0;
  };
  custom.node_alive = [](NodeId node) { return node % 11 != 3; };
  custom.hop_effects = [](NodeId from, NodeId to, int attempt) {
    HopEffects effects;
    effects.delay_ticks = (from + to + attempt) % 3;
    return effects;
  };
  custom.max_delay_ticks = 2;

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    FaultScheduleOptions fault_options;
    fault_options.transient_link_fraction = 0.3;
    fault_options.transient_drop_probability = 0.5;
    fault_options.persistent_link_failures = 3;
    fault_options.node_deaths = 2;
    fault_options.link_heals = 1;
    fault_options.node_recoveries = 1;
    fault_options.seed = seed;
    const FaultSchedule faults =
        FaultSchedule::Generate(topology, {0}, fault_options);
    MobilityOptions mobility_options;
    mobility_options.model = MobilityModel::kRandomWaypoint;
    mobility_options.rounds = fault_options.rounds;
    mobility_options.speed_m_per_round = 8.0;
    mobility_options.seed = seed;
    const MobilityTrace mobility =
        MobilityTrace::Generate(topology, mobility_options);
    ASSERT_FALSE(mobility.events().empty());
    std::vector<bool> down(static_cast<size_t>(node_count));
    for (NodeId n = 0; n < node_count; ++n) {
      down[n] = SplitMix64(seed * 7919 + static_cast<uint64_t>(n)) % 9 == 0;
    }
    // The layer's channel and the reference's: same options, own counters.
    ChannelOptions channel_options;
    channel_options.good_loss = 0.1;
    channel_options.bad_loss = 0.8;
    channel_options.p_enter_bad = 0.1;
    channel_options.p_exit_bad = 0.3;
    channel_options.seed = seed;
    obs::MetricsRegistry layer_metrics, reference_metrics;
    ChannelModel layer_channel(channel_options);
    ChannelModel reference_channel(channel_options);
    layer_channel.set_metrics(&layer_metrics);
    reference_channel.set_metrics(&reference_metrics);

    std::vector<int64_t> transitions;  // Per source set.
    // Bits 0..4 of `sources` select down, mobility, faults, channel, base;
    // sources == 0 is the empty layer, the perfect radio.
    for (int sources = 0; sources < 32; ++sources) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " sources "
                                        << sources);
      const bool use_down = sources & 1, use_mobility = sources & 2,
                 use_faults = sources & 4, use_channel = sources & 8,
                 use_base = sources & 16;
      const PhysicalLayer layer{
          .down = use_down ? &down : nullptr,
          .mobility = use_mobility ? &mobility : nullptr,
          .faults = use_faults ? &faults : nullptr,
          .channel = use_channel ? &layer_channel : nullptr,
          .base = use_base ? &custom : nullptr};
      const int64_t before = layer_metrics.Total("chan.burst_transitions");
      for (int round = 0; round <= fault_options.rounds; ++round) {
        const LossyLinkModel links = layer.Bind(round);
        ASSERT_EQ(links.hop_effects == nullptr, !use_base);
        EXPECT_EQ(links.max_delay_ticks, use_base ? 2 : 0);
        for (const auto& [from, to] : pairs) {
          for (int attempt : kAttempts) {
            const bool expected =
                !(use_down && (down[from] || down[to])) &&
                (!use_mobility || mobility.LinkUpAt(round, from, to)) &&
                (!use_faults ||
                 faults.AttemptDelivers(round, from, to, attempt)) &&
                (!use_channel || reference_channel.AttemptDelivers(
                                     round, from, to, attempt)) &&
                (!use_base || custom.attempt_delivers(from, to, attempt));
            ASSERT_EQ(links.attempt_delivers(from, to, attempt), expected)
                << "round " << round << " " << from << "->" << to
                << " attempt " << attempt;
            if (use_base) {
              ASSERT_EQ(links.hop_effects(from, to, attempt).delay_ticks,
                        (from + to + attempt) % 3);
            }
          }
        }
        ASSERT_EQ(links.node_alive == nullptr,
                  !use_down && !use_faults && !use_base);
        for (NodeId n = 0; links.node_alive != nullptr && n < node_count;
             ++n) {
          ASSERT_EQ(links.node_alive(n),
                    !(use_down && down[n]) &&
                        (!use_faults || faults.NodeAliveAt(round, n)) &&
                        (!use_base || custom.node_alive(n)))
              << "round " << round << " node " << n;
        }
      }
      ASSERT_EQ(layer_metrics.Total("chan.burst_transitions"),
                reference_metrics.Total("chan.burst_transitions"));
      transitions.push_back(layer_metrics.Total("chan.burst_transitions") -
                            before);
    }
    // Every earlier source refuses some attempts, so with all of them the
    // channel is asked about fewer attempts than alone.
    EXPECT_GT(transitions[8], transitions[31]);
    EXPECT_GT(transitions[31], 0);
  }
}

}  // namespace
}  // namespace m2m
