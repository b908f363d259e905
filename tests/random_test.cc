#include "util/random.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace ugs {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextIndexInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextIndex(17), 17u);
  }
}

TEST(RngTest, NextIndexCoversAllValues) {
  Rng rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextIndex(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(19);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
    EXPECT_FALSE(rng.Bernoulli(-0.5));
    EXPECT_TRUE(rng.Bernoulli(1.5));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, GeometricMean) {
  Rng rng(41);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Geometric(0.25));
  }
  // Mean failures before success = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, GeometricCertainSuccessIsZero) {
  Rng rng(43);
  EXPECT_EQ(rng.Geometric(1.0), 0u);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(53);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  EXPECT_NE(v, orig);  // Probability 1/50! of spurious failure.
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(59);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> s = rng.SampleWithoutReplacement(100, 30);
    std::set<std::uint64_t> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 30u);
    for (auto x : s) EXPECT_LT(x, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(61);
  std::vector<std::uint64_t> s = rng.SampleWithoutReplacement(10, 10);
  std::set<std::uint64_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(RngTest, SampleWithoutReplacementUniform) {
  Rng rng(67);
  std::vector<int> counts(10, 0);
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    for (auto x : rng.SampleWithoutReplacement(10, 3)) {
      ++counts[static_cast<std::size_t>(x)];
    }
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.3, 0.02);
  }
}

TEST(RngTest, ForkIndependentStreams) {
  Rng parent(71);
  Rng child = parent.Fork();
  // The child's stream should not replicate the parent's.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next64() == child.Next64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

}  // namespace
}  // namespace ugs
