#include "util/random.h"

#include <cmath>
#include <unordered_set>

namespace ugs {
namespace {

std::uint64_t SplitMix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

double Rng::Uniform(double lo, double hi) {
  UGS_DCHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

std::uint64_t Rng::NextIndex(std::uint64_t n) {
  UGS_DCHECK(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    std::uint64_t r = Next64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  UGS_DCHECK(lo <= hi);
  std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextIndex(span));
}

double Rng::Exponential(double rate) {
  UGS_DCHECK(rate > 0.0);
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return -std::log(u) / rate;
}

std::uint64_t Rng::Geometric(double p) {
  UGS_DCHECK(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  double u;
  do {
    u = NextDouble();
  } while (u == 0.0);
  return static_cast<std::uint64_t>(std::floor(std::log(u) /
                                               std::log1p(-p)));
}

std::vector<std::uint64_t> Rng::SampleWithoutReplacement(std::uint64_t n,
                                                         std::uint64_t k) {
  UGS_CHECK(k <= n);
  // Floyd's algorithm: k iterations, expected O(k) set operations.
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k) * 2);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t j = n - k; j < n; ++j) {
    std::uint64_t t = NextIndex(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

Rng Rng::Fork() { return Rng(Next64()); }

Rng SplitRng(std::uint64_t base, std::uint64_t index) {
  return Rng(base + 0x9e3779b97f4a7c15ULL * (index + 1));
}

}  // namespace ugs
