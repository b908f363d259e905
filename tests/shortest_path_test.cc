#include "query/shortest_path.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

int Distance(const UncertainGraph& g, const std::vector<char>& present,
             VertexId s, VertexId t) {
  PairSearchScratch scratch;
  return ShortestDistanceOnWorld(testing_util::WorldOf(g, present), s, t,
                                 &scratch);
}

TEST(BfsTest, PathGraphDistances) {
  UncertainGraph g = testing_util::PathGraph(6, 0.5);
  std::vector<char> present(g.num_edges(), 1);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_EQ(Distance(g, present, 0, v), static_cast<int>(v));
    EXPECT_EQ(Distance(g, present, v, 0), static_cast<int>(v));
  }
}

TEST(BfsTest, AbsentEdgeBreaksPath) {
  UncertainGraph g = testing_util::PathGraph(6, 0.5);
  std::vector<char> present(g.num_edges(), 1);
  present[2] = 0;  // Break between vertices 2 and 3.
  EXPECT_EQ(Distance(g, present, 0, 2), 2);
  EXPECT_EQ(Distance(g, present, 0, 3), kUnreachable);
  EXPECT_EQ(Distance(g, present, 0, 5), kUnreachable);
  EXPECT_EQ(Distance(g, present, 5, 0), kUnreachable);
}

TEST(BfsTest, ShortcutPreferred) {
  // Cycle 0-1-2-3-0: distance 0->2 is 2 via either side; remove one side
  // and it is still 2; add chord 0-2 and it becomes 1.
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}, {0, 3, 0.5}, {0, 2, 0.5}});
  std::vector<char> present(g.num_edges(), 1);
  EXPECT_EQ(Distance(g, present, 0, 2), 1);
  present[4] = 0;  // Remove the chord.
  EXPECT_EQ(Distance(g, present, 0, 2), 2);
}

TEST(BfsTest, SourceDistanceZero) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  std::vector<char> present(g.num_edges(), 0);
  EXPECT_EQ(Distance(g, present, 2, 2), 0);
  EXPECT_EQ(Distance(g, present, 2, 0), kUnreachable);
}

TEST(SamplePairsTest, DistinctEndpointsInRange) {
  Rng rng(1);
  std::vector<VertexPair> pairs = SampleDistinctPairs(50, 200, &rng);
  EXPECT_EQ(pairs.size(), 200u);
  for (const VertexPair& p : pairs) {
    EXPECT_NE(p.s, p.t);
    EXPECT_LT(p.s, 50u);
    EXPECT_LT(p.t, 50u);
  }
}

TEST(McShortestPathTest, CertainPathGraphExactDistances) {
  UncertainGraph g = testing_util::PathGraph(5, 1.0);
  Rng rng(2);
  std::vector<VertexPair> pairs{{0, 4}, {1, 3}};
  const SampleEngine engine;
  McSamples s = McShortestPath(g, pairs, 10, &rng, engine);
  EXPECT_EQ(s.num_units, 2u);
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    EXPECT_TRUE(s.IsValid(sample, 0));
    EXPECT_DOUBLE_EQ(s.At(sample, 0), 4.0);
    EXPECT_DOUBLE_EQ(s.At(sample, 1), 2.0);
  }
}

TEST(McShortestPathTest, DisconnectedSamplesMarkedInvalid) {
  // Single edge with p = 0.3: the pair is connected in ~30% of worlds;
  // invalid samples must be excluded (paper's SP conditioning).
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.3}});
  Rng rng(3);
  std::vector<VertexPair> pairs{{0, 1}};
  const SampleEngine engine;
  McSamples s = McShortestPath(g, pairs, 2000, &rng, engine);
  std::size_t valid = 0;
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    if (s.IsValid(sample, 0)) {
      EXPECT_DOUBLE_EQ(s.At(sample, 0), 1.0);
      ++valid;
    }
  }
  EXPECT_NEAR(static_cast<double>(valid) / s.num_samples, 0.3, 0.03);
}

TEST(McShortestPathTest, SharedSourceGrouping) {
  // Pairs sharing a source, a repeated pair and an s == t pair each get
  // their own, consistent result.
  UncertainGraph g = testing_util::PathGraph(6, 1.0);
  Rng rng(4);
  std::vector<VertexPair> pairs{{0, 1}, {0, 3}, {0, 5}, {2, 4}, {0, 3}, {4, 4}};
  const SampleEngine engine;
  McSamples s = McShortestPath(g, pairs, 5, &rng, engine);
  const double want[] = {1.0, 3.0, 5.0, 2.0, 3.0, 0.0};
  for (std::size_t sample = 0; sample < s.num_samples; ++sample) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_TRUE(s.IsValid(sample, i)) << "pair " << i;
      EXPECT_DOUBLE_EQ(s.At(sample, i), want[i]) << "pair " << i;
    }
  }
}

}  // namespace
}  // namespace ugs
