// Agenda and round-compatibility suite (docs/THEORY.md section 16).
//
//  1. The lossy round's tick agenda is deterministic: events pop in
//     (time, schedule order), checked against a reference over a seeded
//     interleaving of schedules and pops with many ties, events beyond the
//     bucket window and long empty gaps.
//  2. Round compatibility is *byte* identity: RunRoundLossy and
//     EventNetwork::RunCompatRound (RunRoundLossy over a transport's link
//     model) both reproduce committed golden digests of traces, metrics
//     JSON, aggregate bits, coverage and heard sets over 20 seeds and four
//     channel regimes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "event/event_runtime.h"
#include "event/transport.h"
#include "obs/metrics.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/channel.h"
#include "runtime/network.h"
#include "runtime/tick_agenda.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using event::EventNetwork;
using event::RoundCompatTransport;

constexpr int kSeeds = 20;

Topology TestTopology(uint64_t seed) {
  return MakeUniformRandom(56, Area{110.0, 190.0}, kDefaultRadioRangeM,
                           0xA5EED + seed);
}

Workload TestWorkload(const Topology& topology, uint64_t seed) {
  WorkloadSpec spec;
  spec.destination_count = 4;
  spec.sources_per_destination = 5;
  spec.max_hops = 4;
  spec.seed = seed;
  return GenerateWorkload(topology, spec);
}

CompiledPlan TestPlan(const Topology& topology, const Workload& workload) {
  PathSystem paths(topology);
  GlobalPlan plan = BuildPlan(
      std::make_shared<MulticastForest>(paths, workload.tasks),
      workload.functions);
  return CompiledPlan::Compile(plan, workload.functions);
}

void AppendHex(std::ostringstream& out, double v) {
  out << std::hexfloat << v << std::defaultfloat << ";";
}

/// Serializes every observable field of a lossy-round result, maps and sets
/// in sorted order, doubles as hexfloat — one differing bit anywhere
/// differs here.
std::string FingerprintLossy(const RuntimeNetwork::LossyResult& r) {
  std::ostringstream out;
  out << "attempts=" << r.attempts << " deliv=" << r.deliveries
      << " dup=" << r.duplicates << " retx=" << r.retransmissions
      << " acks_lost=" << r.acks_lost << " abandoned=" << r.messages_abandoned
      << " epoch_rej=" << r.epoch_rejected << " bytes=" << r.payload_bytes
      << " ticks=" << r.final_tick << " corrupt=" << r.corrupt_frames
      << " spont=" << r.spontaneous_duplicates
      << " reord=" << r.reordered_deliveries << " e=";
  AppendHex(out, r.energy_mj);
  for (double e : r.node_energy_mj) AppendHex(out, e);
  std::map<NodeId, double> values(r.destination_values.begin(),
                                  r.destination_values.end());
  for (const auto& [d, v] : values) {
    out << " d" << d << "@" << r.destination_epochs.at(d) << "=";
    AppendHex(out, v);
  }
  std::vector<NodeId> incomplete = r.incomplete_destinations;
  std::sort(incomplete.begin(), incomplete.end());
  out << " incomplete=";
  for (NodeId d : incomplete) out << d << ",";
  out << " heard=";
  for (const auto& [from, to] : r.heard) out << from << ">" << to << ",";
  std::map<NodeId, RuntimeNetwork::LossyResult::DestinationCoverage> coverage(
      r.destination_coverage.begin(), r.destination_coverage.end());
  for (const auto& [d, c] : coverage) {
    out << " cov" << d << "=" << c.covered << "/" << c.expected << ":"
        << (c.complete ? 1 : 0) << ":" << c.xor_fold << ":";
    for (NodeId s : c.sources) out << s << ",";
  }
  std::map<NodeId, double> degraded(r.degraded_values.begin(),
                                    r.degraded_values.end());
  for (const auto& [d, v] : degraded) {
    out << " deg" << d << "=";
    AppendHex(out, v);
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// 1. Tick-agenda determinism in isolation.

TEST(TickAgenda, PopsInTimeThenScheduleOrder) {
  TickAgenda<int> agenda(/*reach=*/4);
  agenda.Schedule(5, 50);  // Beyond the 4-tick window: overflow.
  agenda.Schedule(1, 10);
  agenda.Schedule(5, 51);  // Same time as the first: fires after it.
  agenda.Schedule(3, 30);
  agenda.Schedule(1, 11);
  agenda.Schedule(5, 52);

  std::vector<int> popped;
  std::vector<int64_t> times;
  while (!agenda.empty()) {
    const TickAgenda<int>::Fired fired = agenda.Pop();
    popped.push_back(fired.event);
    times.push_back(fired.tick);
  }
  EXPECT_EQ(popped, (std::vector<int>{10, 11, 30, 50, 51, 52}));
  EXPECT_EQ(times, (std::vector<int64_t>{1, 1, 3, 5, 5, 5}));
}

TEST(TickAgenda, SchedulingAtThePoppingTimeIsAllowed) {
  TickAgenda<int> agenda(/*reach=*/4);
  agenda.Schedule(2, 1);
  EXPECT_EQ(agenda.Pop().event, 1);
  // A handler reacting at time 2 may schedule more work at time 2; it fires
  // after everything already queued there, in schedule order.
  agenda.Schedule(2, 2);
  agenda.Schedule(2, 3);
  EXPECT_EQ(agenda.Pop().event, 2);
  EXPECT_EQ(agenda.Pop().event, 3);
  EXPECT_TRUE(agenda.empty());
}

TEST(TickAgenda, WindowIsThePowerOfTwoCoveringTheReachCappedAt256) {
  EXPECT_EQ(TickAgenda<int>(1).window(), 1u);
  EXPECT_EQ(TickAgenda<int>(9).window(), 16u);
  EXPECT_EQ(TickAgenda<int>(256).window(), 256u);
  // A reach near the tick domain's limit must not size the ring to it.
  EXPECT_EQ(TickAgenda<int>(int64_t{1} << 30).window(), 256u);
}

TEST(TickAgenda, RandomInterleavingMatchesReferenceOrder) {
  // Schedules land at or after the last popped time, with many ties
  // (including at the popping time itself), beyond the 8-tick window, and
  // across long empty gaps; every pop must be the pending event with the
  // smallest (time, insertion index). Phases alternate between growing and
  // draining the agenda, so it also runs empty and jumps forward.
  struct Pending {
    int64_t time;
    int index;
  };
  std::vector<Pending> reference;
  TickAgenda<int> agenda(/*reach=*/8);
  ASSERT_EQ(agenda.window(), 8u);
  uint64_t state = 0x5EED;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  int64_t now = 0;
  int scheduled = 0;
  int pops = 0;
  int empty_checks = 0;
  int beyond_window = 0;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t schedule_percent = (op / 1000) % 2 == 0 ? 65 : 25;
    if (next() % 100 < schedule_percent) {
      const uint64_t kind = next() % 100;
      int64_t distance = static_cast<int64_t>(next() % 4);
      if (kind >= 98) {
        distance = 1000 + static_cast<int64_t>(next() % 5000);  // Long gap.
      } else if (kind >= 85) {
        distance = 8 + static_cast<int64_t>(next() % 40);  // Overflow.
      }
      if (distance >= 8) ++beyond_window;
      agenda.Schedule(now + distance, scheduled);
      reference.push_back(Pending{now + distance, scheduled});
      ++scheduled;
    } else if (reference.empty()) {
      EXPECT_TRUE(agenda.empty());
      ++empty_checks;
    } else {
      auto expected = std::min_element(
          reference.begin(), reference.end(),
          [](const Pending& a, const Pending& b) {
            return a.time != b.time ? a.time < b.time : a.index < b.index;
          });
      ASSERT_FALSE(agenda.empty()) << "op " << op;
      const TickAgenda<int>::Fired fired = agenda.Pop();
      ASSERT_EQ(fired.tick, expected->time) << "op " << op;
      ASSERT_EQ(fired.event, expected->index) << "op " << op;
      now = fired.tick;
      reference.erase(expected);
      ++pops;
    }
    ASSERT_EQ(agenda.size(), reference.size());
  }
  EXPECT_GT(pops, 5000);
  EXPECT_GT(empty_checks, 0);
  EXPECT_GT(beyond_window, 1000);
  EXPECT_GT(now, 100000);  // The long gaps were crossed.
}

TEST(TickAgendaDeathTest, SchedulingBeforeTheCurrentTickFails) {
  TickAgenda<int> agenda(/*reach=*/4);
  agenda.Schedule(3, 0);
  agenda.Pop();
  EXPECT_DEATH(agenda.Schedule(2, 1), "schedule before the current tick");
}

// ---------------------------------------------------------------------------
// 2. Round-compatibility byte identity: RunRoundLossy and RunCompatRound
// over a RoundCompatTransport against golden digests, 20 seeds, four
// channel regimes, three rounds each — traces, metrics JSON, and every
// aggregate bit.

struct CompatRegime {
  const char* name;
  /// Builds the per-round link model. The ChannelModel outlives the bound
  /// model via the caller's scope.
  std::function<LossyLinkModel(const ChannelModel&, int round)> bind;
  ChannelOptions channel;
  bool track_node_energy = false;
};

std::vector<CompatRegime> CompatRegimes(uint64_t seed) {
  std::vector<CompatRegime> regimes;

  // Clean links: no loss machinery involved.
  {
    CompatRegime regime;
    regime.name = "clean";
    regime.bind = [](const ChannelModel&, int) {
      LossyLinkModel links;
      links.attempt_delivers = [](NodeId, NodeId, int) { return true; };
      return links;
    };
    regimes.push_back(regime);
  }

  // Independent Bernoulli loss (the legacy lossy regime).
  {
    CompatRegime regime;
    regime.name = "bernoulli";
    regime.channel.good_loss = 0.25;
    regime.channel.seed = seed * 11 + 1;
    regime.bind = [](const ChannelModel& channel, int round) {
      return channel.Bind(round);
    };
    regimes.push_back(regime);
  }

  // Adversarial channel: bursts, delay, duplication, corruption — every
  // deferred-effect kind crosses the transport boundary.
  {
    CompatRegime regime;
    regime.name = "adversarial";
    regime.channel.good_loss = 0.08;
    regime.channel.bad_loss = 0.8;
    regime.channel.p_enter_bad = 0.08;
    regime.channel.p_exit_bad = 0.3;
    regime.channel.delay_probability = 0.3;
    regime.channel.max_delay_ticks = 3;
    regime.channel.duplicate_probability = 0.15;
    regime.channel.corrupt_probability = 0.1;
    regime.channel.seed = seed * 31 + 7;
    regime.bind = [](const ChannelModel& channel, int round) {
      return channel.Bind(round);
    };
    regimes.push_back(regime);
  }

  // Dead nodes + loss + per-node energy attribution: the liveness mask and
  // the battery ledger's input cross the transport boundary too.
  {
    CompatRegime regime;
    regime.name = "dead_nodes";
    regime.channel.good_loss = 0.15;
    regime.channel.seed = seed * 13 + 5;
    regime.track_node_energy = true;
    regime.bind = [seed](const ChannelModel& channel, int round) {
      return channel.Bind(round, [seed](NodeId n) {
        return (static_cast<uint64_t>(n) + seed) % 9 != 3;
      });
    };
    regimes.push_back(regime);
  }
  return regimes;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string HexDigest(uint64_t digest) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << digest;
  return out.str();
}

/// FNV-1a-64 of each (seed, regime) three-round lossy run: the
/// FingerprintLossy lines, then EventTrace::ToString(), then
/// MetricsRegistry::ToJson(). Columns follow CompatRegimes: clean,
/// bernoulli, adversarial, dead_nodes. Recorded while RunCompatRound was
/// still an independent event-engine transcription of RunRoundLossy and
/// both produced these bytes, so the table carries that differential
/// forward now that one engine remains. Re-recorded once when the
/// lossless engine's two metrics (runtime.tx_packets and
/// runtime.delivery_passes) left the registry, with the runtime otherwise
/// unchanged: only the metrics JSON moved.
constexpr uint64_t kGoldenDigests[kSeeds][4] = {
    {0xabce809d94718ddcULL, 0x580216898f5f59f1ULL, 0x4a721a38d94f9a32ULL,
     0x9b1f1f0542bb2e21ULL},  // seed 1
    {0x307e90d8ff4ce8f7ULL, 0xaf3f867e0df8d12dULL, 0xdfbabc44f200034cULL,
     0xa394bb375542c74bULL},  // seed 2
    {0x413bd81bb0ecf4abULL, 0x751b189cb6d1d261ULL, 0x14b16ccb589c44e9ULL,
     0x73a75753e6bd2b72ULL},  // seed 3
    {0xe5afe15df3bc5c58ULL, 0xb18a1fa0520f3e95ULL, 0x4298c5428b96ea30ULL,
     0x82ee855d88aff344ULL},  // seed 4
    {0x3b5d84d717d81082ULL, 0x541e3e178e5ba834ULL, 0x6955e637af9509dfULL,
     0x76639429b3d61aedULL},  // seed 5
    {0xe52b794aaa198689ULL, 0x88ae60f879547fbeULL, 0x5b811aed7b98707dULL,
     0x7723411042447f01ULL},  // seed 6
    {0x6a22a76a9e24f7b2ULL, 0xb7ff72b2354255bcULL, 0xf3c0265eff7bee15ULL,
     0x3e4590209d0a04bbULL},  // seed 7
    {0x71e474f9154bfbc9ULL, 0x060ab0f3b4623b2aULL, 0x80c5b46cfd60fbe6ULL,
     0x280e53462b8d2ae0ULL},  // seed 8
    {0x61b1b7050a13bd4fULL, 0x5e2d8c84837b8be3ULL, 0x778c744c69a69e3cULL,
     0xd66a53e477f81babULL},  // seed 9
    {0x737469be35d3eb99ULL, 0xfa9f68b30bceb3acULL, 0xa9999555bd5d45a9ULL,
     0xf2cef907838cda10ULL},  // seed 10
    {0xd0426884789f0b39ULL, 0xf96767d5ea5405d9ULL, 0xb6181ddac73b935dULL,
     0xc13bbeff77b47438ULL},  // seed 11
    {0xfac4d7e847703f25ULL, 0x1c1bb38ea1d9c1ffULL, 0x35aaf8099d7393d4ULL,
     0x28864ca2bf82d182ULL},  // seed 12
    {0x9d4128803e21c7c8ULL, 0x7c268536d4f6eaaaULL, 0x84e18a35ded11436ULL,
     0x481aa21d19839e50ULL},  // seed 13
    {0x53071a69673a2fdbULL, 0x1b5052f43583eb33ULL, 0xe93696ee23025fc8ULL,
     0xc98735646c0a493dULL},  // seed 14
    {0x58affa3ef49e3c0cULL, 0x0dadbf9c0b81e3c8ULL, 0xb6312e24545f394cULL,
     0xb76a4296b974d1e4ULL},  // seed 15
    {0x861ffb6ee7cc3a1eULL, 0x0a56e1bf5f40ab39ULL, 0xe94ebcc52b06400cULL,
     0x34251a7e125d7b90ULL},  // seed 16
    {0xc6da8cdfb54c9554ULL, 0xe5140be68906d510ULL, 0xe86ed575cb81d8a0ULL,
     0x38d40f8436dff5ffULL},  // seed 17
    {0x3f47fd090fc187cdULL, 0x311bc4aee99b297dULL, 0xbd16ba64ccbeb41aULL,
     0xcf17f1f30614c9c3ULL},  // seed 18
    {0xfe50a00091e7597cULL, 0x1f0461e995cb1e2dULL, 0xb11533ff8ed9c549ULL,
     0x55ddba10bd9bdffeULL},  // seed 19
    {0xb0455267a304c565ULL, 0x6b08e9358ad6c1beULL, 0x611f9239b442b012ULL,
     0xf33efd1bf7e5e0ebULL},  // seed 20
};

TEST(RoundCompat, ByteIdenticalToRunRoundLossyAcrossSeedsAndRegimes) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Topology topology = TestTopology(seed);
    Workload workload = TestWorkload(topology, seed);
    CompiledPlan compiled = TestPlan(topology, workload);
    std::vector<CompatRegime> regimes = CompatRegimes(seed);
    ASSERT_EQ(regimes.size(), 4u);

    for (size_t r = 0; r < regimes.size(); ++r) {
      const CompatRegime& regime = regimes[r];
      SCOPED_TRACE(std::string("seed=") + std::to_string(seed) +
                   " regime=" + regime.name);
      auto digest = [&](bool compat) {
        ChannelModel channel(regime.channel);
        RetryPolicy retry;
        retry.max_attempts = 10;
        RuntimeNetwork fleet(compiled, workload.functions);
        fleet.set_track_node_energy(regime.track_node_energy);
        obs::MetricsRegistry metrics;
        fleet.set_metrics(&metrics);
        EventNetwork engine(fleet);
        EventTrace trace;
        std::string bytes;
        for (int round = 0; round < 3; ++round) {
          ReadingGenerator readings(topology.node_count(),
                                    seed * 200 + static_cast<uint64_t>(round));
          LossyLinkModel links = regime.bind(channel, round);
          RoundCompatTransport transport(links);
          RuntimeNetwork::LossyResult result =
              compat ? engine.RunCompatRound(readings.values(), transport,
                                             retry, {}, &trace)
                     : fleet.RunRoundLossy(readings.values(), links, retry,
                                           {}, &trace);
          bytes += FingerprintLossy(result) + "\n";
        }
        return HexDigest(Fnv1a64(bytes + trace.ToString() + metrics.ToJson()));
      };
      const std::string golden = HexDigest(kGoldenDigests[seed - 1][r]);
      EXPECT_EQ(digest(/*compat=*/false), golden) << "RunRoundLossy";
      EXPECT_EQ(digest(/*compat=*/true), golden) << "RunCompatRound";
    }
  }
}

}  // namespace
}  // namespace m2m
