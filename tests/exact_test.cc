#include "query/exact.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

/// The oracles chunk worlds on this pool (hardware concurrency); their
/// values are the same at any width.
class ExactTest : public ::testing::Test {
 protected:
  ThreadPool pool;
};

TEST_F(ExactTest, PaperFigure1ConnectivityValues) {
  // The running example of the paper's introduction: Pr[G connected] for
  // K4 with p = 0.3 is 0.219 (rounded); the closed form is
  // 16 p^3 q^3 + 15 p^4 q^2 + 6 p^5 q + p^6 = 0.218646.
  UncertainGraph g = testing_util::CompleteK4(0.3);
  EXPECT_NEAR(ExactConnectivityProbability(g, pool), 0.218646, 1e-9);

  UncertainGraph sparse = UncertainGraph::FromEdges(
      4, {{0, 1, 0.6}, {0, 3, 0.6}, {2, 3, 0.6}});
  EXPECT_NEAR(ExactConnectivityProbability(sparse, pool), 0.216, 1e-12);
}

TEST_F(ExactTest, SingleEdgeConnectivity) {
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.37}});
  EXPECT_NEAR(ExactConnectivityProbability(g, pool), 0.37, 1e-12);
}

TEST_F(ExactTest, PathConnectivityIsProduct) {
  UncertainGraph g = testing_util::PathGraph(5, 0.8);
  EXPECT_NEAR(ExactConnectivityProbability(g, pool), std::pow(0.8, 4), 1e-12);
}

TEST_F(ExactTest, TriangleReliability) {
  // Pr[0 ~ 1] in a triangle with p each: direct edge or the 2-hop path:
  // p + (1-p) p^2.
  double p = 0.5;
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, p}, {1, 2, p}, {0, 2, p}});
  EXPECT_NEAR(ExactReliability(g, 0, 1, pool), p + (1 - p) * p * p, 1e-12);
}

TEST_F(ExactTest, ReliabilitySymmetric) {
  UncertainGraph g = testing_util::CompleteK4(0.4);
  EXPECT_NEAR(ExactReliability(g, 0, 3, pool), ExactReliability(g, 3, 0, pool),
              1e-12);
}

TEST_F(ExactTest, ExpectedDistanceSingleEdge) {
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.3}});
  double connect = 0.0;
  double d = ExactExpectedDistance(g, 0, 1, &connect, pool);
  EXPECT_NEAR(connect, 0.3, 1e-12);
  EXPECT_NEAR(d, 1.0, 1e-12);  // Conditioned on connected: always 1 hop.
}

TEST_F(ExactTest, ExpectedDistanceTriangle) {
  // 0-1 via direct edge (dist 1) or via vertex 2 (dist 2).
  double p = 0.5;
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, p}, {1, 2, p}, {0, 2, p}});
  double connect = 0.0;
  double d = ExactExpectedDistance(g, 0, 1, &connect, pool);
  // Pr[dist=1] = p = 0.5; Pr[dist=2] = (1-p) p^2 = 0.125.
  double expected = (0.5 * 1.0 + 0.125 * 2.0) / 0.625;
  EXPECT_NEAR(connect, 0.625, 1e-12);
  EXPECT_NEAR(d, expected, 1e-12);
}

TEST_F(ExactTest, NeverConnectedPairGivesZero) {
  UncertainGraph g = UncertainGraph::FromEdges(3, {{0, 1, 0.5}});
  double connect = -1.0;
  double d = ExactExpectedDistance(g, 0, 2, &connect, pool);
  EXPECT_DOUBLE_EQ(connect, 0.0);
  EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST_F(ExactTest, DeterministicGraphSingleWorld) {
  UncertainGraph g = testing_util::PathGraph(4, 1.0);
  EXPECT_NEAR(ExactConnectivityProbability(g, pool), 1.0, 1e-12);
  EXPECT_NEAR(ExactReliability(g, 0, 3, pool), 1.0, 1e-12);
}

}  // namespace
}  // namespace ugs
