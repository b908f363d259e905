#include "query/reliability.h"

#include <gtest/gtest.h>

#include "query/exact.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

/// Worlds are sampled on this engine (hardware concurrency); estimates
/// are the same at any width.
class ReliabilityTest : public ::testing::Test {
 protected:
  const SampleEngine engine;
};

using ConnectivityTest = ReliabilityTest;

TEST_F(ReliabilityTest, CertainEdgeAlwaysReliable) {
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 1.0}});
  Rng rng(1);
  std::vector<double> r =
      McReliability(g, {{0, 1}}, 100, &rng, engine).UnitMeans();
  EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST_F(ReliabilityTest, SingleEdgeMatchesProbability) {
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.4}});
  Rng rng(2);
  std::vector<double> r =
      McReliability(g, {{0, 1}}, 20000, &rng, engine).UnitMeans();
  EXPECT_NEAR(r[0], 0.4, 0.01);
}

TEST_F(ReliabilityTest, SeriesPathMultiplies) {
  // 0-1-2 with p = 0.5 each: Pr[0 ~ 2] = 0.25.
  UncertainGraph g = testing_util::PathGraph(3, 0.5);
  Rng rng(3);
  std::vector<double> r =
      McReliability(g, {{0, 2}}, 20000, &rng, engine).UnitMeans();
  EXPECT_NEAR(r[0], 0.25, 0.01);
}

TEST_F(ReliabilityTest, McMatchesExactOnK4) {
  UncertainGraph g = testing_util::CompleteK4(0.3);
  double exact = ExactReliability(g, 0, 3, engine.pool());
  Rng rng(4);
  std::vector<double> r =
      McReliability(g, {{0, 3}}, 30000, &rng, engine).UnitMeans();
  EXPECT_NEAR(r[0], exact, 0.01);
}

TEST_F(ReliabilityTest, McSamplesAreBernoulli) {
  UncertainGraph g = testing_util::PathGraph(3, 0.7);
  Rng rng(5);
  McSamples s = McReliability(g, {{0, 2}}, 100, &rng, engine);
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    double v = s.At(sample, 0);
    EXPECT_TRUE(v == 0.0 || v == 1.0);
  }
}

TEST_F(ConnectivityTest, PaperFigure1OriginalGraph) {
  // Figure 1(a): K4 with p = 0.3 everywhere; Pr[connected] = 0.219.
  UncertainGraph g = testing_util::CompleteK4(0.3);
  Rng rng(6);
  double mc = EstimateConnectivity(g, 60000, &rng, engine);
  EXPECT_NEAR(mc, 0.219, 0.01);
}

TEST_F(ConnectivityTest, PaperFigure1SparsifiedGraph) {
  // Figure 1(b): 3-edge spanning tree at p = 0.6; Pr = 0.6^3 = 0.216.
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.6}, {0, 3, 0.6}, {2, 3, 0.6}});
  Rng rng(7);
  double mc = EstimateConnectivity(g, 60000, &rng, engine);
  EXPECT_NEAR(mc, 0.216, 0.01);
}

TEST_F(ConnectivityTest, DisconnectedStructureIsZero) {
  UncertainGraph g = UncertainGraph::FromEdges(4, {{0, 1, 1.0}, {2, 3, 1.0}});
  Rng rng(8);
  EXPECT_DOUBLE_EQ(EstimateConnectivity(g, 100, &rng, engine), 0.0);
}

TEST_F(ConnectivityTest, SingleVertexAlwaysConnected) {
  UncertainGraph g = UncertainGraph::FromEdges(1, {});
  Rng rng(9);
  EXPECT_DOUBLE_EQ(EstimateConnectivity(g, 10, &rng, engine), 1.0);
}

}  // namespace
}  // namespace ugs
