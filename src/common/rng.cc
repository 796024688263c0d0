#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace m2m {

namespace {

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t s = seed;
  for (auto& word : state_) {
    s = SplitMix64(s);
    word = s;
  }
  // xoshiro must not be seeded with all zeros; SplitMix64(0..3 steps) never
  // produces four zero words, but keep the guard explicit.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = RotL(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  M2M_CHECK_GT(bound, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  while (true) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  M2M_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Gaussian() {
  // Box-Muller; discards the second variate for simplicity.
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

size_t Rng::SampleDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    M2M_CHECK_GE(w, 0.0);
    total += w;
  }
  M2M_CHECK_GT(total, 0.0) << "discrete distribution has no mass";
  double r = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  // Floating-point tail: return the last index with positive weight.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

Rng Rng::Fork(uint64_t label) {
  return Rng(SplitMix64(Next() ^ SplitMix64(label)));
}

}  // namespace m2m
