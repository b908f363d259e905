#include "query/most_probable_path.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

TEST(MostProbablePathTest, DirectEdgeWhenStrongest) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.9}, {1, 2, 0.9}, {0, 2, 0.5}});
  MostProbablePath path = FindMostProbablePath(g, 0, 2);
  // Two-hop 0.81 beats direct 0.5.
  EXPECT_EQ(path.vertices, (std::vector<VertexId>{0, 1, 2}));
  EXPECT_NEAR(path.probability, 0.81, 1e-12);
}

TEST(MostProbablePathTest, DirectEdgeWins) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.5}, {1, 2, 0.5}, {0, 2, 0.6}});
  MostProbablePath path = FindMostProbablePath(g, 0, 2);
  EXPECT_EQ(path.vertices, (std::vector<VertexId>{0, 2}));
  EXPECT_NEAR(path.probability, 0.6, 1e-12);
}

TEST(MostProbablePathTest, UnreachableGivesEmpty) {
  UncertainGraph g = UncertainGraph::FromEdges(4, {{0, 1, 0.5}, {2, 3, 0.5}});
  MostProbablePath path = FindMostProbablePath(g, 0, 3);
  EXPECT_TRUE(path.vertices.empty());
  EXPECT_DOUBLE_EQ(path.probability, 0.0);
}

TEST(MostProbablePathTest, SourceEqualsTargetIsTrivial) {
  UncertainGraph g = testing_util::PathGraph(3, 0.5);
  MostProbablePath path = FindMostProbablePath(g, 1, 1);
  EXPECT_EQ(path.vertices, (std::vector<VertexId>{1}));
  EXPECT_DOUBLE_EQ(path.probability, 1.0);
}

TEST(MostProbablePathTest, ZeroProbabilityEdgeImpassable) {
  UncertainGraph g = UncertainGraph::FromEdges(3, {{0, 1, 0.0}, {1, 2, 0.9}});
  MostProbablePath path = FindMostProbablePath(g, 0, 2);
  EXPECT_TRUE(path.vertices.empty());
}

TEST(MostProbablePathTest, PathProbabilityIsEdgeProduct) {
  UncertainGraph g = testing_util::PathGraph(5, 0.7);
  MostProbablePath path = FindMostProbablePath(g, 0, 4);
  EXPECT_EQ(path.vertices.size(), 5u);
  EXPECT_NEAR(path.probability, std::pow(0.7, 4), 1e-12);
}

TEST(MostProbablePathProbabilitiesTest, AllTargetsOneRun) {
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.8}, {1, 2, 0.5}, {0, 2, 0.3}, {2, 3, 1.0}});
  std::vector<double> p = MostProbablePathProbabilities(g, 0);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_NEAR(p[1], 0.8, 1e-12);
  EXPECT_NEAR(p[2], 0.4, 1e-12);  // 0.8 * 0.5 beats 0.3.
  EXPECT_NEAR(p[3], 0.4, 1e-12);  // Through the p = 1 edge.
}

TEST(MostProbablePathProbabilitiesTest, DeterministicGraphGivesOnes) {
  UncertainGraph g = testing_util::CompleteK4(1.0);
  std::vector<double> p = MostProbablePathProbabilities(g, 2);
  for (double x : p) EXPECT_DOUBLE_EQ(x, 1.0);
}

TEST(MostProbablePathTest, SparsificationPreservesStrongRoutes) {
  // A most-probable-path use case end to end: the strongest route in a
  // ladder survives GDB sparsification because the backbone keeps
  // high-probability edges.
  std::vector<UncertainEdge> edges;
  const std::size_t n = 12;
  for (VertexId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, static_cast<VertexId>(i + 1), 0.95});
  }
  for (VertexId i = 0; i + 2 < n; ++i) {
    edges.push_back({i, static_cast<VertexId>(i + 2), 0.05});
  }
  UncertainGraph g = UncertainGraph::FromEdges(n, std::move(edges));
  MostProbablePath original = FindMostProbablePath(g, 0, n - 1);
  ASSERT_EQ(original.vertices.size(), n);  // The 0.95 chain.
  EXPECT_NEAR(original.probability, std::pow(0.95, n - 1), 1e-9);
}

}  // namespace
}  // namespace ugs
