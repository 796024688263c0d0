// Event-queue and round-compatibility suite (docs/THEORY.md section 16).
//
//  1. The discrete-event queue itself is deterministic: events pop in
//     (time, schedule order), checked against a reference over a seeded
//     interleaving of schedules and pops with many ties.
//  2. Round compatibility is *byte* identity: RunRoundLossy and
//     EventNetwork::RunCompatRound (RunRoundLossy over a transport's link
//     model) both reproduce committed golden digests of traces, metrics
//     JSON, aggregate bits, coverage and heard sets over 20 seeds and four
//     channel regimes, RunRoundLossy at one thread and at four.

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

#include "common/thread_pool.h"
#include "event/event_queue.h"
#include "event/event_runtime.h"
#include "event/transport.h"
#include "obs/metrics.h"
#include "plan/node_tables.h"
#include "plan/planner.h"
#include "routing/multicast.h"
#include "routing/path_system.h"
#include "runtime/channel.h"
#include "runtime/network.h"
#include "sim/readings.h"
#include "topology/generator.h"
#include "topology/topology.h"
#include "workload/workload.h"

namespace m2m {
namespace {

using event::EventNetwork;
using event::EventQueue;
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
// 1. Event-queue determinism in isolation.

TEST(EventQueue, PopsInTimeThenScheduleOrder) {
  EventQueue<int> queue;
  queue.Schedule(5, 50);
  queue.Schedule(1, 10);
  queue.Schedule(5, 51);  // Same time as the first: fires after it.
  queue.Schedule(3, 30);
  queue.Schedule(1, 11);
  queue.Schedule(5, 52);

  std::vector<int> popped;
  std::vector<int64_t> times;
  while (auto fired = queue.Pop()) {
    popped.push_back(fired->payload);
    times.push_back(fired->time);
  }
  EXPECT_EQ(popped, (std::vector<int>{10, 11, 30, 50, 51, 52}));
  EXPECT_EQ(times, (std::vector<int64_t>{1, 1, 3, 5, 5, 5}));
}

TEST(EventQueue, SchedulingAtThePoppingTimeIsAllowed) {
  EventQueue<int> queue;
  queue.Schedule(2, 1);
  auto first = queue.Pop();
  ASSERT_TRUE(first.has_value());
  // A handler reacting at time 2 may schedule more work at time 2; it fires
  // after everything already queued there, in schedule order.
  queue.Schedule(2, 2);
  queue.Schedule(2, 3);
  EXPECT_EQ(queue.Pop()->payload, 2);
  EXPECT_EQ(queue.Pop()->payload, 3);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, RandomInterleavingMatchesReferenceOrder) {
  // Schedules land at or after the last popped time, with many ties
  // (including at the popping time itself); every pop must be the pending
  // event with the smallest (time, insertion index). Phases alternate
  // between growing and draining the queue, so it also runs empty.
  struct Pending {
    int64_t time;
    int index;
  };
  std::vector<Pending> reference;
  EventQueue<int> queue;
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
  int empty_pops = 0;
  for (int op = 0; op < 20000; ++op) {
    const uint64_t schedule_percent = (op / 1000) % 2 == 0 ? 65 : 25;
    if (next() % 100 < schedule_percent) {
      const int64_t time = now + static_cast<int64_t>(next() % 4);
      queue.Schedule(time, scheduled);
      reference.push_back(Pending{time, scheduled});
      ++scheduled;
    } else if (reference.empty()) {
      EXPECT_FALSE(queue.NextTime().has_value());
      EXPECT_FALSE(queue.Pop().has_value());
      ++empty_pops;
    } else {
      auto expected = std::min_element(
          reference.begin(), reference.end(),
          [](const Pending& a, const Pending& b) {
            return a.time != b.time ? a.time < b.time : a.index < b.index;
          });
      ASSERT_EQ(queue.NextTime(), expected->time) << "op " << op;
      auto fired = queue.Pop();
      ASSERT_TRUE(fired.has_value()) << "op " << op;
      ASSERT_EQ(fired->time, expected->time) << "op " << op;
      ASSERT_EQ(fired->payload, expected->index) << "op " << op;
      now = fired->time;
      reference.erase(expected);
      ++pops;
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  EXPECT_GT(pops, 5000);
  EXPECT_GT(empty_pops, 0);
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
/// forward now that one engine remains.
constexpr uint64_t kGoldenDigests[kSeeds][4] = {
    {0x551e37f0383ff050ULL, 0x5e30e1bc9ee41617ULL, 0xfc7a30c56aa72fdeULL,
     0x498ed6023d57a5a9ULL},  // seed 1
    {0x9eaa0c8a8e7145abULL, 0xbff5c6523501b9a5ULL, 0x0a46c30fcc6b29ceULL,
     0x440350e7256d9b89ULL},  // seed 2
    {0xa7887455df6103b7ULL, 0x003931446e25c55fULL, 0xd74bab084321c485ULL,
     0x6dcc73464d703254ULL},  // seed 3
    {0x7fd405d31160e4b4ULL, 0xb3e8fbaae18a877bULL, 0x22b449fa34b73d36ULL,
     0xf202920a792e6ff6ULL},  // seed 4
    {0x628227442874cf30ULL, 0x652113fb3b56ad98ULL, 0x8df5d2f0176bbc11ULL,
     0x5d8535f6e92287b5ULL},  // seed 5
    {0x3b7ef330b6c17997ULL, 0x3cc6a57cf3e6a3f0ULL, 0xb444e331863cf225ULL,
     0xab210df074ec22abULL},  // seed 6
    {0x93ccbbf6b073ff3aULL, 0xc2a2c93279770d04ULL, 0x0bdf0383557a9f17ULL,
     0x74a40ac2f5ccd607ULL},  // seed 7
    {0x18a927c4f6b73a43ULL, 0x659934a1b7bf8984ULL, 0x866c18790729e04cULL,
     0x5f0397e33a581878ULL},  // seed 8
    {0x358c06d55eedfb87ULL, 0x81ccb4b14be579f5ULL, 0xdfc6d0c2b6d2f466ULL,
     0xc796592e6ec48ac9ULL},  // seed 9
    {0x78888580a486dfc7ULL, 0x71ecd73dd7c98ad4ULL, 0x712721e0e623039bULL,
     0x4376fd7d36de68b2ULL},  // seed 10
    {0xbd0804cebb4d8275ULL, 0xb0433a00950bc53dULL, 0x4f41f867c08c4557ULL,
     0x9fc5f48141372e52ULL},  // seed 11
    {0x0a11fbf270026f2fULL, 0x2e435686f581b357ULL, 0x8e3ddbad49605798ULL,
     0xaadf5670b625e498ULL},  // seed 12
    {0xd2c689a08abcbafaULL, 0x9f0edeaab098e78eULL, 0xbe8cec384402d27aULL,
     0x0b315918176748b8ULL},  // seed 13
    {0x4258342b5f982fd9ULL, 0x29e8822d2bda84e9ULL, 0xf2168eb8574d64faULL,
     0xc614d5070dc65c71ULL},  // seed 14
    {0xae0ce5eac98139faULL, 0xf3086902a751419aULL, 0x128a5291f02b4534ULL,
     0x27972eb7a41c4792ULL},  // seed 15
    {0x9f5da3e905d57280ULL, 0x4fa24a596457ba45ULL, 0x9b7d425c3719a902ULL,
     0x71c8500c8cd9a40aULL},  // seed 16
    {0x272f4c727eaa0d60ULL, 0x5307d518f30a7376ULL, 0xd050a3eae548aaeeULL,
     0xb2c6ae9f9d3740f1ULL},  // seed 17
    {0xd04c3af0e151d5c1ULL, 0xbd9c7b972855a15bULL, 0x1d68c6c32f106096ULL,
     0x6ffb4313db4cfa0bULL},  // seed 18
    {0x473c9217da616870ULL, 0x5c0c078308c6047bULL, 0x2cd0a624e13e4f5fULL,
     0xa78041b69da4f8aaULL},  // seed 19
    {0xbee29557e73c2d43ULL, 0x22ec5707770557eaULL, 0x59524c5dcda08510ULL,
     0x927b29701f0ebf31ULL},  // seed 20
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
      // RunRoundLossy has no parallel part; a thread-pool setting must
      // still leave its bytes alone.
      ScopedParallelism parallelism(4, 7);
      EXPECT_EQ(digest(/*compat=*/false), golden) << "RunRoundLossy, 4 threads";
    }
  }
}

}  // namespace
}  // namespace m2m
