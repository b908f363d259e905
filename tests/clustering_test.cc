#include "query/clustering.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

std::vector<double> Clustering(const UncertainGraph& g,
                               const std::vector<char>& present) {
  std::vector<double> cc(g.num_vertices());
  ClusteringScratch scratch;
  LocalClusteringOnWorld(testing_util::WorldOf(g, present), cc.data(),
                         &scratch);
  return cc;
}

TEST(ClusteringTest, TriangleIsFullyClustered) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.5}, {1, 2, 0.5}, {0, 2, 0.5}});
  std::vector<char> present(3, 1);
  std::vector<double> cc = Clustering(g, present);
  for (double x : cc) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(ClusteringTest, PathHasZeroClustering) {
  UncertainGraph g = testing_util::PathGraph(5, 0.5);
  std::vector<char> present(g.num_edges(), 1);
  for (double x : Clustering(g, present)) {
    EXPECT_DOUBLE_EQ(x, 0.0);
  }
}

TEST(ClusteringTest, CompleteK4AllOnes) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  std::vector<char> present(g.num_edges(), 1);
  for (double x : Clustering(g, present)) {
    EXPECT_DOUBLE_EQ(x, 1.0);
  }
}

TEST(ClusteringTest, K4MinusOneEdge) {
  // Remove edge (2,3) from K4: vertices 0 and 1 have deg 3 with 2
  // triangles / 3 possible pairs -> 2/3; vertices 2, 3 have deg 2 with
  // one triangle -> 1.
  UncertainGraph g = testing_util::CompleteK4(0.5);
  std::vector<char> present(g.num_edges(), 1);
  EdgeId removed = g.FindEdge(2, 3);
  ASSERT_NE(removed, kInvalidEdge);
  present[removed] = 0;
  std::vector<double> cc = Clustering(g, present);
  EXPECT_NEAR(cc[0], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cc[1], 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cc[2], 1.0);
  EXPECT_DOUBLE_EQ(cc[3], 1.0);
}

TEST(ClusteringTest, DegreeBelowTwoIsZero) {
  UncertainGraph g = testing_util::StarGraph(5, 0.5);
  std::vector<char> present(g.num_edges(), 1);
  std::vector<double> cc = Clustering(g, present);
  EXPECT_DOUBLE_EQ(cc[0], 0.0);  // Star has no triangles.
  for (VertexId v = 1; v < 5; ++v) EXPECT_DOUBLE_EQ(cc[v], 0.0);
}

TEST(ClusteringTest, AbsentEdgesIgnored) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.5}, {1, 2, 0.5}, {0, 2, 0.5}});
  std::vector<char> present{1, 1, 0};  // Open triangle.
  std::vector<double> cc = Clustering(g, present);
  EXPECT_DOUBLE_EQ(cc[0], 0.0);
  EXPECT_DOUBLE_EQ(cc[1], 0.0);
  EXPECT_DOUBLE_EQ(cc[2], 0.0);
}

TEST(McClusteringTest, CertainTriangleAllSamplesOne) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}});
  Rng rng(1);
  const SampleEngine engine;
  McSamples s = McClusteringCoefficient(g, 10, &rng, engine);
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    for (std::size_t u = 0; u < s.num_units; ++u) {
      EXPECT_DOUBLE_EQ(s.At(sample, u), 1.0);
    }
  }
}

TEST(McClusteringTest, MeanTracksEdgeProbability) {
  // Triangle with uncertain chord: vertex 0's CC is 1 iff the chord
  // (1,2) is present AND both of 0's edges are present; conditioned on
  // degree 2, mean CC(0) over samples approximates p_chord.
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 1.0}, {0, 2, 1.0}, {1, 2, 0.35}});
  Rng rng(2);
  const SampleEngine engine;
  McSamples s = McClusteringCoefficient(g, 20000, &rng, engine);
  EXPECT_NEAR(s.UnitMean(0), 0.35, 0.01);
}

}  // namespace
}  // namespace ugs
