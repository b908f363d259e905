#include "query/knn.h"

#include <cmath>

#include <gtest/gtest.h>

#include "query/most_probable_path.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

TEST(KnnTest, OrderedByPathProbability) {
  // Star with distinct probabilities: neighbors come back sorted.
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.9}, {0, 2, 0.5}, {0, 3, 0.7}});
  std::vector<KnnResult> knn = MostProbableKnn(g, 0, 3);
  ASSERT_EQ(knn.size(), 3u);
  EXPECT_EQ(knn[0].vertex, 1u);
  EXPECT_EQ(knn[1].vertex, 3u);
  EXPECT_EQ(knn[2].vertex, 2u);
  EXPECT_NEAR(knn[0].path_probability, 0.9, 1e-12);
  EXPECT_NEAR(knn[2].path_probability, 0.5, 1e-12);
}

TEST(KnnTest, MultiHopBeatsWeakDirect) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.9}, {1, 2, 0.9}, {0, 2, 0.3}});
  std::vector<KnnResult> knn = MostProbableKnn(g, 0, 2);
  ASSERT_EQ(knn.size(), 2u);
  EXPECT_EQ(knn[0].vertex, 1u);
  EXPECT_EQ(knn[1].vertex, 2u);
  EXPECT_NEAR(knn[1].path_probability, 0.81, 1e-12);  // Via vertex 1.
}

TEST(KnnTest, FewerThanKWhenComponentSmall) {
  UncertainGraph g = UncertainGraph::FromEdges(
      5, {{0, 1, 0.5}, {2, 3, 0.5}, {3, 4, 0.5}});
  std::vector<KnnResult> knn = MostProbableKnn(g, 0, 10);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].vertex, 1u);
}

TEST(KnnTest, KZeroIsEmpty) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  EXPECT_TRUE(MostProbableKnn(g, 0, 0).empty());
}

TEST(KnnTest, AgreesWithFullDijkstra) {
  UncertainGraph g = testing_util::CompleteK4(0.4);
  std::vector<double> all = MostProbablePathProbabilities(g, 1);
  std::vector<KnnResult> knn = MostProbableKnn(g, 1, 3);
  ASSERT_EQ(knn.size(), 3u);
  for (const KnnResult& r : knn) {
    EXPECT_NEAR(r.path_probability, all[r.vertex], 1e-12);
  }
}

TEST(KnnTest, PathGraphSettlesInHopOrder) {
  UncertainGraph g = testing_util::PathGraph(6, 0.8);
  std::vector<KnnResult> knn = MostProbableKnn(g, 0, 5);
  ASSERT_EQ(knn.size(), 5u);
  for (std::size_t i = 0; i < knn.size(); ++i) {
    EXPECT_EQ(knn[i].vertex, static_cast<VertexId>(i + 1));
    EXPECT_NEAR(knn[i].path_probability, std::pow(0.8, i + 1), 1e-12);
  }
}

}  // namespace
}  // namespace ugs
