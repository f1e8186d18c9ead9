#ifndef BESYNC_UTIL_RANDOM_H_
#define BESYNC_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace besync {

/// Deterministic pseudo-random number generator (xoshiro256++) with the
/// distributions needed by the workload generators and simulators.
///
/// All experiment code takes an explicit seed so every run is reproducible.
/// The generator is cheap to copy; independent streams should be derived via
/// `Fork()`, which produces a statistically independent child generator.
class Rng {
 public:
  /// Seeds the full 256-bit state from `seed` via SplitMix64, so that nearby
  /// seeds produce unrelated streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform random 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double Exponential(double rate);

  /// Poisson-distributed count with the given mean. Uses Knuth's method for
  /// small means and a transformed-rejection method for large means.
  int64_t Poisson(double mean);

  /// Zipf-distributed integer in [1, n]: P(k) proportional to 1/k^s.
  /// Used for importance/popularity skew in the web-index example.
  int64_t Zipf(int64_t n, double s);

  /// Derives an independent child generator (for per-source / per-object
  /// streams whose draws must not depend on iteration order elsewhere).
  Rng Fork();

  /// Keyed variant of Fork() that does NOT advance this generator: the
  /// child stream is a pure function of (current state, key), so any number
  /// of children — e.g. one per shard, keyed by shard id — can be derived
  /// concurrently, in any order, without perturbing the parent stream.
  /// Distinct keys give unrelated streams.
  Rng Split(uint64_t key) const;

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    for (size_t i = values->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*values)[i - 1], (*values)[j]);
    }
  }

 private:
  uint64_t state_[4];
};
// Every per-object runtime carries one Rng: keep it to the bare state.
static_assert(sizeof(Rng) == 32, "Rng is its 256-bit state and nothing else");

/// Normal (Gaussian) draws over an Rng by the Box-Muller transform. Each
/// transform yields two values; the second is cached here rather than in
/// the Rng, so the generators that never draw normals carry no cache.
class NormalSampler {
 public:
  explicit NormalSampler(Rng* rng) : rng_(rng) {}

  /// Normal with the given mean and standard deviation.
  double Next(double mean, double stddev);

 private:
  Rng* rng_;
  bool has_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace besync

#endif  // BESYNC_UTIL_RANDOM_H_
