// Event-runtime differential suite (docs/THEORY.md section 16).
//
// Three layers of guarantees, strongest first:
//
//  1. The discrete-event queue itself is deterministic: same-timestamp
//     events fire in schedule order, cancellation is exact (double-cancel
//     and cancel-after-fire are detected), and a schedule/cancel churn of
//     tens of thousands of timers keeps heap memory proportional to the
//     live set.
//  2. Round compatibility is *byte* identity: RunRoundLossy and
//     EventNetwork::RunCompatRound (RunRoundLossy over a transport adapter)
//     both reproduce committed golden digests of traces, metrics JSON,
//     aggregate bits, coverage and heard sets over 20 seeds and four
//     channel regimes, RunRoundLossy at one thread and at four.
//  3. Pipelined execution is new behavior with an analytic anchor: under
//     clock drift and nonzero hop latency, multiple timesteps overlap in
//     flight (max_in_flight >= 2) while every per-timestep aggregate still
//     matches the round oracle, a replay is byte-stable, and the event.*
//     instrumentation reconciles with the result without perturbing it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "event/clock.h"
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

namespace m2m::event {

/// White-box access for the memory-boundedness regression.
class EventQueueTestPeer {
 public:
  template <typename E>
  static size_t TombstoneCount(const EventQueue<E>& queue) {
    return queue.cancelled_.size();
  }
  template <typename E>
  static size_t FiredSetSize(const EventQueue<E>& queue) {
    return queue.fired_.size();
  }
};

}  // namespace m2m::event

namespace m2m {
namespace {

using event::BuildDriftClocks;
using event::ClockSpec;
using event::DriftOptions;
using event::EventId;
using event::EventNetwork;
using event::EventQueue;
using event::EventQueueTestPeer;
using event::RoundCompatTransport;
using event::SimChannelTransport;
using event::VirtualClock;

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

bool ValuesClose(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
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

TEST(EventQueue, CancellationIsExact) {
  EventQueue<int> queue;
  EventId keep = queue.Schedule(1, 1);
  EventId cancel = queue.Schedule(2, 2);
  EventId tail = queue.Schedule(3, 3);

  EXPECT_TRUE(queue.Cancel(cancel));
  EXPECT_FALSE(queue.Cancel(cancel)) << "double-cancel must be detected";
  EXPECT_EQ(queue.size(), 2u);

  auto fired = queue.Pop();
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->payload, 1);
  EXPECT_FALSE(queue.Cancel(keep)) << "cancel-after-fire must be detected";

  // The cancelled event never surfaces.
  EXPECT_EQ(queue.Pop()->payload, 3);
  EXPECT_FALSE(queue.Cancel(tail));
  EXPECT_FALSE(queue.Cancel(EventId{})) << "invalid id";
  EXPECT_FALSE(queue.Cancel(EventId{999})) << "never-issued id";
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.cancelled_total(), 1u);
  EXPECT_EQ(queue.scheduled_total(), 3u);
}

TEST(EventQueue, CancelledHeadIsSkippedByNextTime) {
  EventQueue<int> queue;
  EventId head = queue.Schedule(1, 1);
  queue.Schedule(7, 7);
  EXPECT_EQ(queue.NextTime().value(), 1);
  EXPECT_TRUE(queue.Cancel(head));
  EXPECT_EQ(queue.NextTime().value(), 7);
  EXPECT_EQ(queue.Pop()->payload, 7);
  EXPECT_FALSE(queue.NextTime().has_value());
}

TEST(EventQueue, ChurnKeepsMemoryBounded) {
  // The ack/retransmit workload in miniature: every iteration schedules a
  // few timers and cancels most of them. 10k+ events must not accumulate
  // tombstones or an unbounded fired-set.
  EventQueue<int> queue;
  uint64_t state = 42;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<EventId> pending;
  size_t max_heap = 0;
  size_t max_fired = 0;
  for (int i = 0; i < 10000; ++i) {
    pending.push_back(
        queue.Schedule(static_cast<int64_t>(next() % 64) + i, i));
    if (pending.size() >= 4) {
      // Cancel three of the last four; pop one event to advance time.
      for (int k = 0; k < 3; ++k) {
        queue.Cancel(pending[pending.size() - 2 - static_cast<size_t>(k)]);
      }
      pending.clear();
      queue.Pop();
    }
    max_heap = std::max(max_heap, queue.heap_size());
    max_fired = std::max(max_fired,
                         event::EventQueueTestPeer::FiredSetSize(queue));
  }
  EXPECT_EQ(queue.scheduled_total(), 10000u);
  EXPECT_GT(queue.cancelled_total(), 7000u);
  // Live events stay small (a handful per iteration survive), so the
  // physical heap and the fired-set must stay O(live), far below the 10k
  // ever scheduled.
  EXPECT_LT(max_heap, 600u) << "tombstone compaction failed";
  EXPECT_LT(max_fired, 1500u) << "fired-set pruning failed";
  EXPECT_LE(EventQueueTestPeer::TombstoneCount(queue), queue.heap_size());
}

TEST(EventQueue, ChurnReplayIsByteStable) {
  auto run = [](std::string* log) {
    EventQueue<int> queue;
    uint64_t state = 7;
    auto next = [&state]() {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    std::vector<EventId> ids;
    std::ostringstream out;
    for (int i = 0; i < 2000; ++i) {
      ids.push_back(queue.Schedule(static_cast<int64_t>(next() % 32), i));
      if (next() % 3 == 0 && !ids.empty()) {
        out << "c" << queue.Cancel(ids[next() % ids.size()]);
      }
      if (next() % 2 == 0) {
        if (auto fired = queue.Pop()) {
          out << "p" << fired->time << ":" << fired->seq << ":"
              << fired->payload << ";";
        }
      }
    }
    while (auto fired = queue.Pop()) {
      out << "p" << fired->time << ":" << fired->seq << ":" << fired->payload
          << ";";
    }
    *log = out.str();
  };
  std::string first;
  std::string second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// 2. Virtual clocks.

TEST(VirtualClock, GlobalForIsTheExactInverseOfLocalAt) {
  const int32_t skews[] = {-300000, -777, -1, 0, 1, 500, 250000};
  const int64_t offsets[] = {0, 1, 9, 1000};
  for (int32_t skew : skews) {
    for (int64_t offset : offsets) {
      VirtualClock clock(ClockSpec{offset, skew});
      // Monotone local readings.
      for (int64_t g = 1; g < 400; ++g) {
        EXPECT_GE(clock.LocalAt(g), clock.LocalAt(g - 1));
      }
      // GlobalFor(L) is the *earliest* global tick reading >= L.
      for (int64_t local = offset - 5; local < offset + 400; ++local) {
        const int64_t g = clock.GlobalFor(local);
        EXPECT_GE(clock.LocalAt(g), local)
            << "skew=" << skew << " offset=" << offset << " L=" << local;
        if (g > 0) {
          EXPECT_LT(clock.LocalAt(g - 1), local)
              << "skew=" << skew << " offset=" << offset << " L=" << local;
        }
      }
    }
  }
}

TEST(VirtualClock, IdentitySpecIsTheIdentityMap) {
  VirtualClock clock;
  for (int64_t g = 0; g < 100; ++g) {
    EXPECT_EQ(clock.LocalAt(g), g);
    EXPECT_EQ(clock.GlobalFor(g), g);
  }
}

TEST(VirtualClock, DriftAssignmentIsSeededAndBounded) {
  DriftOptions options;
  options.max_skew_ppm = 400;
  options.max_offset_ticks = 17;
  options.seed = 99;
  std::vector<ClockSpec> a = BuildDriftClocks(40, options);
  std::vector<ClockSpec> b = BuildDriftClocks(40, options);
  ASSERT_EQ(a.size(), 40u);
  bool any_nonidentity = false;
  for (size_t n = 0; n < a.size(); ++n) {
    EXPECT_EQ(a[n].skew_ppm, b[n].skew_ppm);
    EXPECT_EQ(a[n].offset_ticks, b[n].offset_ticks);
    EXPECT_GE(a[n].skew_ppm, -options.max_skew_ppm);
    EXPECT_LE(a[n].skew_ppm, options.max_skew_ppm);
    EXPECT_GE(a[n].offset_ticks, 0);
    EXPECT_LE(a[n].offset_ticks, options.max_offset_ticks);
    any_nonidentity = any_nonidentity || !a[n].is_identity();
  }
  EXPECT_TRUE(any_nonidentity);

  options.seed = 100;
  std::vector<ClockSpec> c = BuildDriftClocks(40, options);
  bool any_differs = false;
  for (size_t n = 0; n < a.size(); ++n) {
    any_differs = any_differs || a[n].skew_ppm != c[n].skew_ppm ||
                  a[n].offset_ticks != c[n].offset_ticks;
  }
  EXPECT_TRUE(any_differs) << "drift regime must depend on the seed";

  std::vector<ClockSpec> identity = BuildDriftClocks(8, DriftOptions{});
  for (const ClockSpec& spec : identity) EXPECT_TRUE(spec.is_identity());
}

// ---------------------------------------------------------------------------
// 3. Round-compatibility byte identity: RunRoundLossy and RunCompatRound
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
                                             retry, {}, &trace, round)
                     : fleet.RunRoundLossy(readings.values(), links, retry,
                                           {}, &trace);
          bytes += FingerprintLossy(result) + "\n";
        }
        return HexDigest(Fnv1a64(bytes + trace.ToString() + metrics.ToJson()));
      };
      const std::string golden = HexDigest(kGoldenDigests[seed - 1][r]);
      EXPECT_EQ(digest(/*compat=*/false), golden) << "RunRoundLossy";
      EXPECT_EQ(digest(/*compat=*/true), golden) << "RunCompatRound";
      // The node-parallel round start and dedup-eviction sweep must leave
      // the same bytes at any thread and shard count.
      ScopedParallelism parallelism(4, 7);
      EXPECT_EQ(digest(/*compat=*/false), golden) << "RunRoundLossy, 4 threads";
    }
  }
}

// ---------------------------------------------------------------------------
// 4. Pipelined asynchronous execution: overlap, correctness, determinism,
// instrumentation.

std::string FingerprintPipeline(const EventNetwork::PipelineResult& r) {
  std::ostringstream out;
  out << "in_flight=" << r.max_in_flight << " final=" << r.final_tick
      << " events=" << r.events_processed
      << " cancelled=" << r.retransmit_timers_cancelled << "\n";
  for (size_t t = 0; t < r.timesteps.size(); ++t) {
    const EventNetwork::PipelineResult::Timestep& step = r.timesteps[t];
    out << "t" << t << " attempts=" << step.attempts
        << " deliv=" << step.deliveries << " retx=" << step.retransmissions
        << " dup=" << step.duplicates
        << " abandoned=" << step.messages_abandoned
        << " corrupt=" << step.corrupt_frames
        << " buffered=" << step.buffered_prestart
        << " start=" << step.start_tick << " retire=" << step.retire_tick;
    std::map<NodeId, double> values(step.destination_values.begin(),
                                    step.destination_values.end());
    for (const auto& [d, v] : values) {
      out << " d" << d << "=";
      AppendHex(out, v);
    }
    std::vector<NodeId> incomplete = step.incomplete_destinations;
    std::sort(incomplete.begin(), incomplete.end());
    out << " incomplete=";
    for (NodeId d : incomplete) out << d << ",";
    out << "\n";
  }
  return out.str();
}

/// Per-timestep round oracle: the analytic value every destination must
/// reach regardless of execution schedule.
std::vector<std::unordered_map<NodeId, double>> RoundOracle(
    RuntimeNetwork& fleet,
    const std::vector<std::vector<double>>& readings_per_timestep) {
  std::vector<std::unordered_map<NodeId, double>> oracle;
  for (const std::vector<double>& readings : readings_per_timestep) {
    oracle.push_back(fleet.RunRound(readings).destination_values);
  }
  return oracle;
}

TEST(Pipelined, SequentialScheduleMatchesRoundOracle) {
  const uint64_t seed = 5;
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  CompiledPlan compiled = TestPlan(topology, workload);
  RuntimeNetwork fleet(compiled, workload.functions);
  EventNetwork engine(fleet);

  std::vector<std::vector<double>> readings_per_timestep;
  for (int t = 0; t < 4; ++t) {
    readings_per_timestep.push_back(
        ReadingGenerator(topology.node_count(),
                         seed * 400 + static_cast<uint64_t>(t))
            .values());
  }

  SimChannelTransport::Options transport_options;
  transport_options.base_hop_latency_ticks = 1;
  SimChannelTransport transport(nullptr, transport_options);

  EventNetwork::PipelineOptions options;
  // Identity clocks and a huge release interval: timestep t+1 starts long
  // after t retired, so the pipeline degenerates to sequential rounds.
  options.timestep_interval_ticks = 4096;
  EventNetwork::PipelineResult result =
      engine.RunPipelined(readings_per_timestep, transport, options);

  ASSERT_EQ(result.timesteps.size(), 4u);
  EXPECT_EQ(result.max_in_flight, 1);
  std::vector<std::unordered_map<NodeId, double>> oracle =
      RoundOracle(fleet, readings_per_timestep);
  for (size_t t = 0; t < result.timesteps.size(); ++t) {
    const auto& step = result.timesteps[t];
    EXPECT_TRUE(step.incomplete_destinations.empty());
    ASSERT_EQ(step.destination_values.size(), oracle[t].size());
    for (const auto& [d, v] : oracle[t]) {
      auto it = step.destination_values.find(d);
      ASSERT_NE(it, step.destination_values.end()) << "d=" << d;
      EXPECT_TRUE(ValuesClose(it->second, v))
          << "t=" << t << " d=" << d << " got " << it->second << " want "
          << v;
    }
    EXPECT_GE(step.start_tick, 0);
    EXPECT_GT(step.retire_tick, step.start_tick);
  }
  // Clean transport: every first attempt is acked, so every retransmit
  // timer armed was cancelled exactly.
  EXPECT_GT(result.retransmit_timers_cancelled, 0u);
}

TEST(Pipelined, DriftOverlapsTimestepsAndPreservesAggregates) {
  const uint64_t seed = 9;
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  CompiledPlan compiled = TestPlan(topology, workload);
  RuntimeNetwork fleet(compiled, workload.functions);
  EventNetwork engine(fleet);
  obs::MetricsRegistry event_metrics;
  engine.set_event_metrics(&event_metrics);

  std::vector<std::vector<double>> readings_per_timestep;
  for (int t = 0; t < 6; ++t) {
    readings_per_timestep.push_back(
        ReadingGenerator(topology.node_count(),
                         seed * 500 + static_cast<uint64_t>(t))
            .values());
  }

  SimChannelTransport::Options transport_options;
  transport_options.base_hop_latency_ticks = 2;
  SimChannelTransport transport(nullptr, transport_options);

  EventNetwork::PipelineOptions options;
  // Release interval far below one timestep's completion time (multi-hop
  // paths at 2 ticks/hop plus ack round trips), plus drifted clocks: the
  // pipeline must genuinely overlap.
  options.timestep_interval_ticks = 6;
  DriftOptions drift;
  drift.max_skew_ppm = 200000;
  drift.max_offset_ticks = 10;
  drift.seed = seed;
  options.clocks = BuildDriftClocks(topology.node_count(), drift);

  EventNetwork::PipelineResult result =
      engine.RunPipelined(readings_per_timestep, transport, options);

  ASSERT_EQ(result.timesteps.size(), 6u);
  EXPECT_GE(result.max_in_flight, 2)
      << "pipelining must overlap timesteps under drift";
  std::vector<std::unordered_map<NodeId, double>> oracle =
      RoundOracle(fleet, readings_per_timestep);
  int64_t buffered_total = 0;
  for (size_t t = 0; t < result.timesteps.size(); ++t) {
    const auto& step = result.timesteps[t];
    EXPECT_TRUE(step.incomplete_destinations.empty()) << "t=" << t;
    ASSERT_EQ(step.destination_values.size(), oracle[t].size()) << "t=" << t;
    for (const auto& [d, v] : oracle[t]) {
      auto it = step.destination_values.find(d);
      ASSERT_NE(it, step.destination_values.end()) << "t=" << t << " d=" << d;
      EXPECT_TRUE(ValuesClose(it->second, v))
          << "t=" << t << " d=" << d << " got " << it->second << " want "
          << v;
    }
    buffered_total += step.buffered_prestart;
  }
  EXPECT_GE(buffered_total, 0);
  EXPECT_GT(result.events_processed, 0u);
  EXPECT_NE(event_metrics.ToJson().find("event.pipeline_occupancy"),
            std::string::npos);
}

TEST(Pipelined, LossyReplayIsByteStable) {
  const uint64_t seed = 12;
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  CompiledPlan compiled = TestPlan(topology, workload);

  ChannelOptions channel_options;
  channel_options.good_loss = 0.15;
  channel_options.delay_probability = 0.2;
  channel_options.max_delay_ticks = 2;
  channel_options.duplicate_probability = 0.1;
  channel_options.corrupt_probability = 0.05;
  channel_options.seed = seed * 3 + 1;
  ChannelModel channel(channel_options);

  std::vector<std::vector<double>> readings_per_timestep;
  for (int t = 0; t < 5; ++t) {
    readings_per_timestep.push_back(
        ReadingGenerator(topology.node_count(),
                         seed * 600 + static_cast<uint64_t>(t))
            .values());
  }

  auto run = [&]() {
    RuntimeNetwork fleet(compiled, workload.functions);
    EventNetwork engine(fleet);
    SimChannelTransport::Options transport_options;
    transport_options.base_hop_latency_ticks = 2;
    SimChannelTransport transport(&channel, transport_options);
    EventNetwork::PipelineOptions options;
    options.timestep_interval_ticks = 8;
    options.retry.max_attempts = 10;
    DriftOptions drift;
    drift.max_skew_ppm = 150000;
    drift.max_offset_ticks = 6;
    drift.seed = seed;
    options.clocks = BuildDriftClocks(topology.node_count(), drift);
    return FingerprintPipeline(
        engine.RunPipelined(readings_per_timestep, transport, options));
  };

  std::string first = run();
  std::string second = run();
  EXPECT_EQ(first, second);
  // The lossy regime must actually have exercised recovery machinery for
  // the replay to mean anything.
  EXPECT_NE(first.find("retx="), std::string::npos);
}


TEST(Pipelined, EventInstrumentationDoesNotPerturbResults) {
  // event.* metrics are observational: attaching them must not change a
  // single output byte, and their counters must reconcile with the result.
  const uint64_t seed = 3;
  Topology topology = TestTopology(seed);
  Workload workload = TestWorkload(topology, seed);
  CompiledPlan compiled = TestPlan(topology, workload);
  ChannelOptions channel_options;
  channel_options.good_loss = 0.2;
  channel_options.seed = 77;
  ChannelModel channel(channel_options);

  std::vector<std::vector<double>> readings_per_timestep;
  for (int t = 0; t < 4; ++t) {
    readings_per_timestep.push_back(
        ReadingGenerator(topology.node_count(),
                         909 + static_cast<uint64_t>(t))
            .values());
  }

  auto run = [&](obs::MetricsRegistry* event_metrics) {
    RuntimeNetwork fleet(compiled, workload.functions);
    EventNetwork engine(fleet);
    engine.set_event_metrics(event_metrics);
    SimChannelTransport::Options transport_options;
    transport_options.base_hop_latency_ticks = 2;
    SimChannelTransport transport(&channel, transport_options);
    EventNetwork::PipelineOptions options;
    options.timestep_interval_ticks = 6;
    options.retry.max_attempts = 10;
    DriftOptions drift;
    drift.max_skew_ppm = 100000;
    drift.max_offset_ticks = 4;
    drift.seed = seed;
    options.clocks = BuildDriftClocks(topology.node_count(), drift);
    return engine.RunPipelined(readings_per_timestep, transport, options);
  };

  EventNetwork::PipelineResult plain = run(nullptr);
  obs::MetricsRegistry event_metrics;
  EventNetwork::PipelineResult instrumented = run(&event_metrics);
  EXPECT_EQ(FingerprintPipeline(plain), FingerprintPipeline(instrumented));
  EXPECT_GT(instrumented.events_processed, 0u);
  EXPECT_EQ(event_metrics.Total("event.events_processed"),
            static_cast<int64_t>(instrumented.events_processed));
  EXPECT_EQ(event_metrics.HistogramCount("event.queue_depth"),
            static_cast<int64_t>(instrumented.events_processed));
  EXPECT_EQ(event_metrics.Total("event.timers_cancelled"),
            static_cast<int64_t>(instrumented.retransmit_timers_cancelled));
}

}  // namespace
}  // namespace m2m
