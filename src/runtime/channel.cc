#include "runtime/channel.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace m2m {

namespace {

// Attempts within one block share a Gilbert–Elliott walk; blocks are
// independently reseeded from the stationary distribution. This bounds the
// per-query walk to the block size while keeping every decision a pure
// function of (seed, round, link, attempt).
constexpr int kBurstBlockBits = 6;

// Every draw is SplitMix64(LinkHash ^ attempt), where LinkHash mixes the
// (round, from, to) key into the salt's seed. Callers that draw several
// attempts of one link compute LinkHash once.
uint64_t LinkHash(uint64_t salted_seed, int round, NodeId from, NodeId to) {
  return SplitMix64(salted_seed ^ (static_cast<uint64_t>(round) << 42) ^
                    (static_cast<uint64_t>(static_cast<uint32_t>(from))
                     << 21) ^
                    static_cast<uint64_t>(static_cast<uint32_t>(to)));
}

double UniformOf(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

void CheckProbability(double p, const char* name) {
  M2M_CHECK(p >= 0.0 && p <= 1.0) << name << " outside [0, 1]";
}

}  // namespace

ChannelModel::ChannelModel(const ChannelOptions& options)
    : options_(options) {
  CheckProbability(options_.good_loss, "good_loss");
  CheckProbability(options_.bad_loss, "bad_loss");
  CheckProbability(options_.p_enter_bad, "p_enter_bad");
  CheckProbability(options_.p_exit_bad, "p_exit_bad");
  CheckProbability(options_.reverse_extra_loss, "reverse_extra_loss");
  CheckProbability(options_.duplicate_probability, "duplicate_probability");
  CheckProbability(options_.corrupt_probability, "corrupt_probability");
  CheckProbability(options_.delay_probability, "delay_probability");
  M2M_CHECK_GE(options_.max_delay_ticks, 0);
  if (options_.p_enter_bad > 0.0) {
    M2M_CHECK_GT(options_.p_exit_bad, 0.0)
        << "a burst the chain can enter must also be exitable";
    p_bad_ = options_.p_enter_bad /
             (options_.p_enter_bad + options_.p_exit_bad);
  }
  // Asymmetry convention: the higher-id -> lower-id direction is the
  // "reverse" one (acks mostly travel it on tree-shaped segments).
  loss_[0] = {options_.good_loss, options_.bad_loss};
  loss_[1] = {std::min(1.0, options_.good_loss + options_.reverse_extra_loss),
              std::min(1.0, options_.bad_loss + options_.reverse_extra_loss)};
  for (size_t salt = 0; salt < salted_seeds_.size(); ++salt) {
    salted_seeds_[salt] =
        SplitMix64(options_.seed ^ SplitMix64(0xb1a5'0001 + salt));
  }
}

bool ChannelModel::InBurst(int round, NodeId from, NodeId to,
                           int attempt) const {
  if (options_.p_enter_bad <= 0.0) return false;
  const uint64_t block = static_cast<uint64_t>(attempt) >> kBurstBlockBits;
  const int block_start = static_cast<int>(block << kBurstBlockBits);
  // The forward walk from the block's stationary draw moves a bad state to
  // good iff u < p_exit and a good state to bad iff u < p_enter. Coupling
  // the two states on one uniform u, a step either swaps them (u < lo),
  // keeps them (u >= hi), or sends both to one state (lo <= u < hi): good
  // when p_enter < p_exit, bad otherwise. Walking backwards from `attempt`,
  // the first step of the third kind fixes the state, and the swaps after
  // it only flip it. The same uniforms meet the same thresholds, so every
  // decision equals the forward walk's, in ~1 / |p_exit - p_enter| steps.
  const double lo = std::min(options_.p_enter_bad, options_.p_exit_bad);
  const double hi = std::max(options_.p_enter_bad, options_.p_exit_bad);
  const bool coalesced_bad = options_.p_enter_bad > options_.p_exit_bad;
  // One link hash for the whole walk, then one mix per step.
  const uint64_t step_hash =
      LinkHash(salted_seeds_[kSaltBurstStep], round, from, to);
  bool swapped = false;
  for (int t = attempt; t > block_start; --t) {
    const double u =
        UniformOf(SplitMix64(step_hash ^ static_cast<uint64_t>(t)));
    if (u < lo) {
      swapped = !swapped;
    } else if (u < hi) {
      return coalesced_bad != swapped;
    }
  }
  const bool initially_bad =
      UniformOf(SplitMix64(
          LinkHash(salted_seeds_[kSaltBurstInit], round, from, to) ^ block)) <
      p_bad_;
  return initially_bad != swapped;
}

bool ChannelModel::AttemptDelivers(int round, NodeId from, NodeId to,
                                   int attempt) const {
  const std::array<double, 2>& loss = loss_[from > to];
  if (metrics_ != nullptr) {
    const bool burst = InBurst(round, from, to, attempt);
    if (burst && !InBurst(round, from, to, attempt - 1)) {
      // Observational only: never feeds back into a delivery decision, so
      // a run with metrics attached is byte-identical to one without.
      metrics_->Add(burst_transitions_, 1);
    }
    if (loss[burst] <= 0.0) return true;
    return UniformOf(Draw(kSaltLoss, round, from, to, attempt)) >= loss[burst];
  }
  // The attempt delivers iff u >= loss[burst]. A draw at or above both
  // states' losses delivers and one below both drops whatever the state,
  // so only a draw in between needs the burst walk (THEORY §10).
  const double low = std::min(loss[0], loss[1]);
  const double high = std::max(loss[0], loss[1]);
  if (high <= 0.0) return true;
  const double u = UniformOf(Draw(kSaltLoss, round, from, to, attempt));
  if (u >= high) return true;
  if (u < low) return false;
  return u >= loss[InBurst(round, from, to, attempt)];
}

HopEffects ChannelModel::EffectsFor(int round, NodeId from, NodeId to,
                                    int attempt) const {
  HopEffects effects;
  if (options_.duplicate_probability > 0.0) {
    effects.duplicate =
        UniformOf(Draw(kSaltDuplicate, round, from, to, attempt)) <
        options_.duplicate_probability;
  }
  if (options_.corrupt_probability > 0.0) {
    const uint64_t h = Draw(kSaltCorrupt, round, from, to, attempt);
    if (UniformOf(h) < options_.corrupt_probability) {
      effects.corrupt = true;
      effects.corrupt_bit = static_cast<uint32_t>(h & 0xffffffffu);
    }
  }
  if (options_.max_delay_ticks > 0 && options_.delay_probability > 0.0) {
    const uint64_t h = Draw(kSaltDelay, round, from, to, attempt);
    if (UniformOf(h) < options_.delay_probability) {
      effects.delay_ticks =
          1 + static_cast<int>(h % static_cast<uint64_t>(
                                       options_.max_delay_ticks));
    }
  }
  return effects;
}

uint64_t ChannelModel::Draw(Salt salt, int round, NodeId from, NodeId to,
                           int attempt) const {
  return SplitMix64(LinkHash(salted_seeds_[salt], round, from, to) ^
                    static_cast<uint64_t>(attempt));
}

LossyLinkModel ChannelModel::Bind(
    int round, std::function<bool(NodeId)> node_alive) const {
  LossyLinkModel links;
  links.attempt_delivers = [this, round](NodeId from, NodeId to,
                                         int attempt) {
    return AttemptDelivers(round, from, to, attempt);
  };
  links.node_alive = std::move(node_alive);
  const bool has_effects = options_.duplicate_probability > 0.0 ||
                           options_.corrupt_probability > 0.0 ||
                           (options_.max_delay_ticks > 0 &&
                            options_.delay_probability > 0.0);
  if (has_effects) {
    links.hop_effects = [this, round](NodeId from, NodeId to, int attempt) {
      return EffectsFor(round, from, to, attempt);
    };
    links.max_delay_ticks = options_.max_delay_ticks;
  }
  return links;
}

void ChannelModel::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_ == nullptr) return;
  burst_transitions_ = metrics_->Counter("chan.burst_transitions");
}

}  // namespace m2m
