#ifndef M2M_COMMON_RNG_H_
#define M2M_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace m2m {

/// Deterministic pseudo-random number generator (xoshiro256**), seeded via
/// SplitMix64. All experiments are reproducible given a seed; we do not use
/// std::mt19937 so that streams are identical across standard libraries.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  Rng(const Rng&) = default;
  Rng& operator=(const Rng&) = default;
  Rng(Rng&&) noexcept = default;
  Rng& operator=(Rng&&) noexcept = default;

  /// Next raw 64 random bits.
  uint64_t Next();

  /// Uniform integer in [0, bound). Requires bound > 0.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller.
  double Gaussian();

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Sample an index from a discrete distribution given non-negative weights
  /// (not necessarily normalized). Requires a positive total weight.
  size_t SampleDiscrete(const std::vector<double>& weights);

  /// Fork a new independent generator; deterministic in (this stream, label).
  Rng Fork(uint64_t label);

 private:
  uint64_t state_[4];
};

/// SplitMix64 step: hashes `x` to a well-mixed 64-bit value. Exposed for
/// deterministic per-entity perturbations (edge weights, cover tiebreakers)
/// and inline because hot per-attempt hashes (the channel's Gilbert–Elliott
/// walk) call it in tight loops.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace m2m

#endif  // M2M_COMMON_RNG_H_
