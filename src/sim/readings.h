#ifndef M2M_SIM_READINGS_H_
#define M2M_SIM_READINGS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace m2m {

/// Per-round sensor readings: a deterministic random walk in which each
/// node's value changes with a configurable probability per round (the
/// "probability of value change" axis of paper Figure 7; changes below a
/// suppression threshold simply never happen in this model).
class ReadingGenerator {
 public:
  /// Initial values are uniform in [10, 30); steps are Gaussian with the
  /// given standard deviation.
  ReadingGenerator(int node_count, uint64_t seed, double step_stddev = 2.0);

  ReadingGenerator(const ReadingGenerator&) = default;
  ReadingGenerator& operator=(const ReadingGenerator&) = default;
  ReadingGenerator(ReadingGenerator&&) noexcept = default;
  ReadingGenerator& operator=(ReadingGenerator&&) noexcept = default;

  const std::vector<double>& values() const { return values_; }

  /// Advances one round: each node's value steps with probability
  /// `change_probability`. Returns the per-node changed flags.
  std::vector<bool> Advance(double change_probability);

 private:
  Rng rng_;
  double step_stddev_;
  std::vector<double> values_;
};

}  // namespace m2m

#endif  // M2M_SIM_READINGS_H_
