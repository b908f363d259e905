#include "query/pagerank.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

std::vector<double> PageRank(const UncertainGraph& g,
                             const std::vector<char>& present) {
  std::vector<double> rank(g.num_vertices());
  PageRankScratch scratch;
  PageRankOnWorld(testing_util::WorldOf(g, present), {}, rank.data(), &scratch);
  return rank;
}

TEST(PageRankTest, SumsToOne) {
  UncertainGraph g = testing_util::CompleteK4(0.8);
  std::vector<char> present(g.num_edges(), 1);
  std::vector<double> pr = PageRank(g, present);
  double sum = 0.0;
  for (double x : pr) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PageRankTest, SymmetricGraphUniformRank) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  std::vector<char> present(g.num_edges(), 1);
  std::vector<double> pr = PageRank(g, present);
  for (double x : pr) EXPECT_NEAR(x, 0.25, 1e-9);
}

TEST(PageRankTest, AllEdgesAbsentGivesUniform) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  std::vector<char> present(g.num_edges(), 0);
  std::vector<double> pr = PageRank(g, present);
  for (double x : pr) EXPECT_NEAR(x, 0.25, 1e-9);
}

TEST(PageRankTest, StarCenterRanksHighest) {
  UncertainGraph g = testing_util::StarGraph(10, 0.5);
  std::vector<char> present(g.num_edges(), 1);
  std::vector<double> pr = PageRank(g, present);
  for (VertexId v = 1; v < 10; ++v) {
    EXPECT_GT(pr[0], pr[v]);
    EXPECT_NEAR(pr[v], pr[1], 1e-12);  // Leaves symmetric.
  }
}

TEST(PageRankTest, PathEndpointsRankLowest) {
  UncertainGraph g = testing_util::PathGraph(5, 0.5);
  std::vector<char> present(g.num_edges(), 1);
  std::vector<double> pr = PageRank(g, present);
  EXPECT_LT(pr[0], pr[2]);
  EXPECT_LT(pr[4], pr[2]);
  EXPECT_NEAR(pr[0], pr[4], 1e-9);  // Symmetry.
}

TEST(PageRankTest, DanglingMassRedistributed) {
  // One isolated vertex plus a triangle: ranks still sum to 1 and the
  // isolated vertex keeps a nonzero teleport share.
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.5}, {1, 2, 0.5}, {0, 2, 0.5}});
  std::vector<char> present(g.num_edges(), 1);
  std::vector<double> pr = PageRank(g, present);
  double sum = 0.0;
  for (double x : pr) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(pr[3], 0.0);
  EXPECT_LT(pr[3], pr[0]);
}

TEST(McPageRankTest, ShapeAndRowSums) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(1);
  const SampleEngine engine;
  McSamples s = McPageRank(g, 20, &rng, {}, engine);
  EXPECT_EQ(s.num_units, 4u);
  EXPECT_EQ(s.num_samples, 20u);
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    double sum = 0.0;
    for (std::size_t u = 0; u < s.num_units; ++u) sum += s.At(sample, u);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(McPageRankTest, HubGetsHigherMeanRank) {
  UncertainGraph g = testing_util::StarGraph(8, 0.9);
  Rng rng(2);
  const SampleEngine engine;
  McSamples s = McPageRank(g, 50, &rng, {}, engine);
  double center = s.UnitMean(0);
  for (std::size_t leaf = 1; leaf < 8; ++leaf) {
    EXPECT_GT(center, s.UnitMean(leaf));
  }
}

}  // namespace
}  // namespace ugs
