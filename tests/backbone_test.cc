#include "sparsify/backbone.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "tests/test_util.h"
#include "util/union_find.h"

namespace ugs {
namespace {

UncertainGraph MediumGraph(Rng* rng) {
  ChungLuOptions options;
  options.num_vertices = 400;
  options.avg_degree = 12.0;
  return GenerateChungLu(options,
                         ProbabilityDistribution::Uniform(0.05, 0.6), rng);
}

TEST(TargetEdgeCountTest, Rounds) {
  UncertainGraph g = testing_util::PaperFigure2Graph();  // 5 edges.
  EXPECT_EQ(TargetEdgeCount(g, 0.6), 3u);
  EXPECT_EQ(TargetEdgeCount(g, 0.5), 3u);   // round(2.5) = 3 (llround).
  EXPECT_EQ(TargetEdgeCount(g, 0.39), 2u);
}

TEST(BackboneTest, SpanningBackboneExactSizeAndConnected) {
  Rng rng(1);
  UncertainGraph g = MediumGraph(&rng);
  for (double alpha : {0.3, 0.5, 0.7}) {
    BackboneOptions options;  // kSpanning default.
    Result<std::vector<EdgeId>> b = BuildBackbone(g, alpha, options, &rng);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(b->size(), TargetEdgeCount(g, alpha));
    // Connectivity of the backbone structure.
    std::vector<UncertainEdge> edges;
    for (EdgeId e : *b) edges.push_back(g.edge(e));
    UncertainGraph backbone_graph =
        UncertainGraph::FromEdges(g.num_vertices(), std::move(edges));
    EXPECT_TRUE(backbone_graph.IsStructurallyConnected())
        << "alpha=" << alpha;
  }
}

TEST(BackboneTest, RandomBackboneExactSize) {
  Rng rng(2);
  UncertainGraph g = MediumGraph(&rng);
  BackboneOptions options;
  options.kind = BackboneKind::kRandom;
  Result<std::vector<EdgeId>> b = BuildBackbone(g, 0.4, options, &rng);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), TargetEdgeCount(g, 0.4));
}

TEST(BackboneTest, EdgeIdsAreDistinctAndValid) {
  Rng rng(3);
  UncertainGraph g = MediumGraph(&rng);
  for (auto kind : {BackboneKind::kSpanning, BackboneKind::kRandom}) {
    BackboneOptions options;
    options.kind = kind;
    Result<std::vector<EdgeId>> b = BuildBackbone(g, 0.5, options, &rng);
    ASSERT_TRUE(b.ok());
    std::set<EdgeId> distinct(b->begin(), b->end());
    EXPECT_EQ(distinct.size(), b->size());
    for (EdgeId e : *b) EXPECT_LT(e, g.num_edges());
  }
}

TEST(BackboneTest, InvalidAlphaRejected) {
  Rng rng(4);
  UncertainGraph g = testing_util::CompleteK4(0.5);
  BackboneOptions options;
  EXPECT_FALSE(BuildBackbone(g, 0.0, options, &rng).ok());
  EXPECT_FALSE(BuildBackbone(g, 1.0, options, &rng).ok());
  EXPECT_FALSE(BuildBackbone(g, -0.3, options, &rng).ok());
}

TEST(BackboneTest, TooSmallAlphaForConnectivityRejected) {
  Rng rng(5);
  // Path of 100 vertices, 99 edges: alpha 0.5 --> 50 edges < n-1 = 99.
  UncertainGraph g = testing_util::PathGraph(100, 0.5);
  BackboneOptions options;  // kSpanning.
  Result<std::vector<EdgeId>> b = BuildBackbone(g, 0.5, options, &rng);
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kInvalidArgument);
}

TEST(BackboneTest, RandomBackboneAllowsSmallAlpha) {
  Rng rng(6);
  UncertainGraph g = testing_util::PathGraph(100, 0.5);
  BackboneOptions options;
  options.kind = BackboneKind::kRandom;
  Result<std::vector<EdgeId>> b = BuildBackbone(g, 0.5, options, &rng);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->size(), 50u);
}

TEST(BackboneTest, SpanningPrefersHighProbabilityEdges) {
  // The first maximum spanning forest must grab the heavy edges: on a
  // graph where one spanning tree has p=0.9 everywhere and all other
  // edges are p=0.05, the backbone must contain the p=0.9 tree.
  std::vector<UncertainEdge> edges;
  const std::size_t n = 30;
  for (VertexId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, static_cast<VertexId>(i + 1), 0.9});
  }
  for (VertexId i = 0; i + 2 < n; ++i) {
    edges.push_back({i, static_cast<VertexId>(i + 2), 0.05});
  }
  UncertainGraph g = UncertainGraph::FromEdges(n, std::move(edges));
  Rng rng(7);
  BackboneOptions options;
  Result<std::vector<EdgeId>> b = BuildBackbone(g, 0.58, options, &rng);
  ASSERT_TRUE(b.ok());
  std::set<EdgeId> chosen(b->begin(), b->end());
  for (EdgeId e = 0; e + 1 < n; ++e) {  // Tree edges have ids 0..n-2.
    EXPECT_TRUE(chosen.count(e)) << "tree edge " << e << " missing";
  }
}

TEST(MaximumSpanningForestTest, ForestOfConnectedGraphIsTree) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  std::vector<EdgeId> all{0, 1, 2, 3, 4, 5};
  std::vector<EdgeId> forest = MaximumSpanningForest(g, all);
  EXPECT_EQ(forest.size(), 3u);  // n - 1.
}

TEST(MaximumSpanningForestTest, PicksHeaviestEdges) {
  // Triangle with probabilities 0.9, 0.8, 0.1: the forest must use the
  // two heavy edges.
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.9}, {1, 2, 0.8}, {0, 2, 0.1}});
  std::vector<EdgeId> forest = MaximumSpanningForest(g, {0, 1, 2});
  ASSERT_EQ(forest.size(), 2u);
  EXPECT_TRUE(std::find(forest.begin(), forest.end(), 0u) != forest.end());
  EXPECT_TRUE(std::find(forest.begin(), forest.end(), 1u) != forest.end());
}

TEST(MaximumSpanningForestTest, DisconnectedAvailableSetGivesForest) {
  UncertainGraph g = UncertainGraph::FromEdges(
      4, {{0, 1, 0.5}, {2, 3, 0.5}, {1, 2, 0.5}});
  // Only the two disjoint edges are available.
  std::vector<EdgeId> forest = MaximumSpanningForest(g, {0, 1});
  EXPECT_EQ(forest.size(), 2u);
}

// --- The one-order peel against the per-forest re-sort it replaced. ---

/// Kruskal on a stable sort of `available` by descending probability.
std::vector<EdgeId> ReferenceForest(const UncertainGraph& graph,
                                    const std::vector<EdgeId>& available) {
  std::vector<EdgeId> sorted = available;
  std::stable_sort(sorted.begin(), sorted.end(), [&](EdgeId a, EdgeId b) {
    return graph.edge(a).p > graph.edge(b).p;
  });
  UnionFind uf(graph.num_vertices());
  std::vector<EdgeId> forest;
  for (EdgeId e : sorted) {
    if (uf.Union(graph.edge(e).u, graph.edge(e).v)) forest.push_back(e);
  }
  std::sort(forest.begin(), forest.end());
  return forest;
}

/// The spanning backbone as first written: a separate connectivity pass,
/// then each forest re-sorted from the whole remaining pool, and an
/// over-budget forest built in full before it is dropped. `forests`
/// receives the number of forests taken.
Result<std::vector<EdgeId>> ReferenceSpanningBackbone(
    const UncertainGraph& graph, double alpha, const BackboneOptions& options,
    Rng* rng, int* forests) {
  const std::size_t m = graph.num_edges();
  const std::size_t n = graph.num_vertices();
  const std::size_t target = TargetEdgeCount(graph, alpha);
  std::vector<EdgeId> picked;
  std::vector<EdgeId> pool(m);
  for (EdgeId e = 0; e < m; ++e) pool[e] = e;
  if (graph.IsStructurallyConnected() && target < n - 1) {
    return Status::InvalidArgument(
        "alpha |E| = " + std::to_string(target) + " < |V| - 1 = " +
        std::to_string(n - 1) +
        "; a connectivity-preserving backbone is impossible "
        "(paper footnote 7)");
  }
  const std::size_t spanning_budget = static_cast<std::size_t>(
      options.spanning_fraction * static_cast<double>(target));
  *forests = 0;
  while (*forests < options.max_spanning_forests) {
    std::vector<EdgeId> forest = ReferenceForest(graph, pool);
    if (forest.empty()) break;
    const bool first = (*forests == 0);
    if (!first && picked.size() + forest.size() > spanning_budget) break;
    if (first && forest.size() > target) {
      std::stable_sort(forest.begin(), forest.end(), [&](EdgeId a, EdgeId b) {
        return graph.edge(a).p > graph.edge(b).p;
      });
      forest.resize(target);
      std::sort(forest.begin(), forest.end());
    }
    picked.insert(picked.end(), forest.begin(), forest.end());
    std::vector<EdgeId> rest;
    std::set_difference(pool.begin(), pool.end(), forest.begin(),
                        forest.end(), std::back_inserter(rest));
    pool = std::move(rest);
    ++*forests;
    if (picked.size() >= spanning_budget || picked.size() >= target) break;
  }
  // Algorithm 1's Monte-Carlo fill, drawing from the id-sorted pool.
  while (picked.size() < target && !pool.empty()) {
    const auto i = static_cast<std::size_t>(rng->NextIndex(pool.size()));
    const EdgeId e = pool[i];
    const double p = graph.edge(e).p;
    if (p == 0.0) {
      pool[i] = pool.back();
      pool.pop_back();
      continue;
    }
    if (rng->Bernoulli(p)) {
      picked.push_back(e);
      pool[i] = pool.back();
      pool.pop_back();
    }
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

/// A random graph on n vertices with p drawn from a 4-value grid (ties
/// everywhere), connected or cut into `parts` vertex blocks.
UncertainGraph TiedGraph(std::size_t n, std::size_t m, std::size_t parts,
                         Rng* rng) {
  const double grid[] = {0.125, 0.5, 0.75, 1.0};
  std::set<std::pair<VertexId, VertexId>> seen;
  std::vector<UncertainEdge> edges;
  const std::size_t block = (n + parts - 1) / parts;
  // A path per block keeps each block connected.
  for (VertexId u = 0; u + 1 < n; ++u) {
    if ((u + 1) % block == 0) continue;
    seen.insert({u, u + 1});
    edges.push_back({u, u + 1, grid[rng->NextIndex(4)]});
  }
  for (std::size_t tries = 0; edges.size() < m && tries < 20 * m; ++tries) {
    const auto u = static_cast<VertexId>(rng->NextIndex(n));
    const auto v = static_cast<VertexId>(rng->NextIndex(n));
    if (u == v || u / block != v / block) continue;
    if (!seen.insert({std::min(u, v), std::max(u, v)}).second) continue;
    edges.push_back({u, v, grid[rng->NextIndex(4)]});
  }
  return UncertainGraph::FromEdges(n, std::move(edges));
}

TEST(BackbonePeelTest, MatchesPerForestResortOnTiedGraphs) {
  Rng gen(31);
  int max_forests_seen = 0;
  int oversized_first_forests = 0;
  int refusals = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Every 10th graph has thousands of edges, so the peel runs past the
    // first lazily sorted chunk of the Kruskal order.
    const std::size_t n =
        trial % 10 == 0 ? 150 + gen.NextIndex(250) : 4 + gen.NextIndex(40);
    const std::size_t parts = 1 + gen.NextIndex(3);
    const UncertainGraph g = TiedGraph(n, n * (1 + gen.NextIndex(12)), parts,
                                       &gen);
    const double alpha = 0.05 + 0.9 * gen.NextDouble();
    BackboneOptions options;
    options.max_spanning_forests = 1 + static_cast<int>(gen.NextIndex(6));
    options.spanning_fraction = gen.Bernoulli(0.5) ? 0.5 : 1.0;
    const std::size_t target = TargetEdgeCount(g, alpha);
    if (target == 0) continue;
    const std::uint64_t seed = gen.Next64();
    Rng rng(seed);
    Rng reference_rng(seed);
    int forests = 0;
    const Result<std::vector<EdgeId>> got =
        BuildBackbone(g, alpha, options, &rng);
    const Result<std::vector<EdgeId>> want =
        ReferenceSpanningBackbone(g, alpha, options, &reference_rng, &forests);
    const std::string label = "trial " + std::to_string(trial);
    ASSERT_EQ(got.ok(), want.ok()) << label;
    if (!got.ok()) {
      EXPECT_EQ(got.status().message(), want.status().message()) << label;
      ++refusals;
      continue;
    }
    ASSERT_EQ(*got, *want) << label;
    // Both drew the same random numbers.
    EXPECT_EQ(rng.Next64(), reference_rng.Next64()) << label;
    max_forests_seen = std::max(max_forests_seen, forests);
    std::vector<EdgeId> all(g.num_edges());
    for (EdgeId e = 0; e < g.num_edges(); ++e) all[e] = e;
    if (ReferenceForest(g, all).size() > target) ++oversized_first_forests;
  }
  // The branches the peel must reproduce all ran.
  EXPECT_EQ(max_forests_seen, 6);
  EXPECT_GT(oversized_first_forests, 0);
  EXPECT_GT(refusals, 0);
}

TEST(MaximumSpanningForestTest, MatchesStableSortKruskalInAnyInputOrder) {
  // Ties break by position in `available`, not by edge id.
  Rng rng(32);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = trial % 10 == 0 ? 400 : 3 + rng.NextIndex(30);
    const UncertainGraph g =
        TiedGraph(n, trial % 10 == 0 ? 4000 : 60, 1 + rng.NextIndex(2), &rng);
    std::vector<EdgeId> available;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (rng.Bernoulli(0.7)) available.push_back(e);
    }
    rng.Shuffle(&available);
    EXPECT_EQ(MaximumSpanningForest(g, available),
              ReferenceForest(g, available))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ugs
