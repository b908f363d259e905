#ifndef UGS_UTIL_RANDOM_H_
#define UGS_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace ugs {

/// Deterministic, fast pseudo-random generator (xoshiro256**), seeded via
/// splitmix64. Every randomized component of the library takes an explicit
/// Rng so that experiments and tests are exactly reproducible from a seed.
///
/// Satisfies the UniformRandomBitGenerator concept, so it can also drive
/// <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64 random bits.
  std::uint64_t operator()() { return Next64(); }
  std::uint64_t Next64() {
    const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> [0,1) with full double precision.
    return static_cast<double>(Next64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t NextIndex(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Standard exponential deviate with the given rate (mean = 1/rate).
  double Exponential(double rate);

  /// Geometric number of failures before first success; p in (0,1].
  std::uint64_t Geometric(double p);

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (std::size_t i = v->size() - 1; i > 0; --i) {
      std::size_t j = static_cast<std::size_t>(NextIndex(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Draws k distinct indices uniformly from [0, n) (reservoir-free,
  /// Floyd's algorithm). Requires k <= n. Result order is unspecified.
  std::vector<std::uint64_t> SampleWithoutReplacement(std::uint64_t n,
                                                      std::uint64_t k);

  /// Derives an independent child generator; use to give each parallel or
  /// repeated experiment its own stream while staying reproducible.
  Rng Fork();

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

/// Seed-splitting: the deterministic generator for stream `index` under
/// base seed `base`. Index-addressable (unlike Fork, which advances the
/// parent), so parallel work items can each derive their own stream no
/// matter which thread runs them or in what order -- the primitive behind
/// SampleEngine's per-sample RNGs and NI's parallel calibration. The Rng
/// constructor splitmixes the seed, so a golden-ratio stride is enough to
/// decorrelate adjacent streams.
Rng SplitRng(std::uint64_t base, std::uint64_t index);

}  // namespace ugs

#endif  // UGS_UTIL_RANDOM_H_
