// Cross-validation of the Monte-Carlo query engine against the exact
// possible-world oracle on randomized small graphs: reliability,
// connectivity, and conditional shortest-path distance. Parameterized
// over seeds so each instance exercises a different topology.

#include <cmath>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "metrics/emd_distance.h"
#include "query/exact.h"
#include "query/reliability.h"
#include "query/shortest_path.h"
#include "query/world_sampler.h"

namespace ugs {
namespace {

/// Random graph small enough for exact enumeration (<= 14 edges).
UncertainGraph SmallGraph(std::uint64_t seed) {
  Rng rng(seed);
  return GenerateErdosRenyi(7, 12,
                            ProbabilityDistribution::Uniform(0.15, 0.85),
                            &rng, /*ensure_connected=*/false);
}

/// Estimators and oracles share this engine (hardware concurrency);
/// their values are the same at any width.
class McVsExactTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  const SampleEngine engine;
};

TEST_P(McVsExactTest, ReliabilityWithinConfidence) {
  UncertainGraph g = SmallGraph(GetParam());
  Rng rng(GetParam() * 3 + 1);
  const int kSamples = 20000;
  for (VertexId t : {1u, 3u, 6u}) {
    double exact = ExactReliability(g, 0, t, engine.pool());
    std::vector<double> mc =
        McReliability(g, {{0, t}}, kSamples, &rng, engine).UnitMeans();
    // 5-sigma binomial bound.
    double sigma = std::sqrt(exact * (1 - exact) / kSamples);
    EXPECT_NEAR(mc[0], exact, 5 * sigma + 5e-3)
        << "seed " << GetParam() << " target " << t;
  }
}

TEST_P(McVsExactTest, ConnectivityWithinConfidence) {
  UncertainGraph g = SmallGraph(GetParam());
  Rng rng(GetParam() * 5 + 2);
  const int kSamples = 20000;
  double exact = ExactConnectivityProbability(g, engine.pool());
  double mc = EstimateConnectivity(g, kSamples, &rng, engine);
  double sigma = std::sqrt(exact * (1 - exact) / kSamples);
  EXPECT_NEAR(mc, exact, 5 * sigma + 5e-3) << "seed " << GetParam();
}

TEST_P(McVsExactTest, ConditionalShortestPathMatches) {
  UncertainGraph g = SmallGraph(GetParam());
  Rng rng(GetParam() * 7 + 3);
  double exact_connect = 0.0;
  double exact_distance =
      ExactExpectedDistance(g, 0, 5, &exact_connect, engine.pool());
  if (exact_connect < 0.05) {
    GTEST_SKIP() << "pair (0,5) almost never connected for this seed";
  }
  McSamples sp = McShortestPath(g, {{0, 5}}, 30000, &rng, engine);
  double mc_distance = sp.UnitMean(0);
  std::size_t valid = sp.UnitSamples(0).size();
  EXPECT_NEAR(static_cast<double>(valid) / sp.num_samples, exact_connect,
              0.02);
  EXPECT_NEAR(mc_distance, exact_distance, 0.05) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, McVsExactTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

TEST(McSamplesPropertyTest, ReliabilityMeanEqualsValidSpFraction) {
  // Internal consistency between two query paths: the fraction of worlds
  // where SP is valid must equal the reliability estimate when driven by
  // the same world stream.
  Rng g_rng(99);
  UncertainGraph g = GenerateErdosRenyi(
      20, 50, ProbabilityDistribution::Uniform(0.2, 0.8), &g_rng);
  std::vector<VertexPair> pairs{{0, 10}, {3, 17}};
  Rng r1(5), r2(5);  // Identical streams.
  const SampleEngine engine;
  McSamples sp = McShortestPath(g, pairs, 500, &r1, engine);
  McSamples rl = McReliability(g, pairs, 500, &r2, engine);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    double valid_fraction =
        static_cast<double>(sp.UnitSamples(i).size()) / sp.num_samples;
    EXPECT_NEAR(valid_fraction, rl.UnitMean(i), 1e-12) << "pair " << i;
  }
}

TEST(EmdSelfDistanceTest, SameDistributionNearZero) {
  // D_em between two independent sample sets of the same query shrinks
  // with the sample count (noise floor sanity for the D_em experiments).
  Rng g_rng(7);
  UncertainGraph g = GenerateErdosRenyi(
      30, 120, ProbabilityDistribution::Uniform(0.2, 0.8), &g_rng);
  std::vector<VertexPair> pairs{{0, 15}};
  Rng r1(1), r2(2), r3(3), r4(4);
  const SampleEngine engine;
  double small = MeanUnitEmd(McReliability(g, pairs, 100, &r1, engine),
                             McReliability(g, pairs, 100, &r2, engine));
  double large = MeanUnitEmd(McReliability(g, pairs, 10000, &r3, engine),
                             McReliability(g, pairs, 10000, &r4, engine));
  EXPECT_LT(large, small + 1e-9);
  EXPECT_LT(large, 0.02);
}

}  // namespace
}  // namespace ugs
