// The PossibleWorld view and the kernels that consume it. View
// invariants are checked against the bitmap; every kernel is checked
// against a naive reference written here that reads only the bitmap.

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "query/clustering.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/shortest_path.h"
#include "query/world_sampler.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace ugs {
namespace {

using testing_util::WorldOf;

/// Asserts every invariant of the view against its own bitmap.
void ExpectConsistent(const PossibleWorld& world) {
  const UncertainGraph& g = world.graph();
  const std::vector<char>& present = world.present();
  ASSERT_EQ(present.size(), g.num_edges());
  std::vector<EdgeId> set_bits;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (present[e]) set_bits.push_back(e);
  }
  EXPECT_EQ(std::vector<EdgeId>(world.edges().begin(), world.edges().end()),
            set_bits);
}

std::vector<char> RandomBitmap(std::size_t m, double density, Rng* rng) {
  std::vector<char> present(m);
  for (char& c : present) c = rng->Bernoulli(density) ? 1 : 0;
  return present;
}

/// `g` with every edge listed as (larger, smaller) endpoint.
UncertainGraph LargerEndpointFirst(const UncertainGraph& g) {
  std::vector<UncertainEdge> edges(g.edges().begin(), g.edges().end());
  for (UncertainEdge& e : edges) {
    if (e.u < e.v) std::swap(e.u, e.v);
  }
  return UncertainGraph::FromEdges(g.num_vertices(), std::move(edges));
}

/// Small random graphs; the sparse ones leave isolated vertices.
std::vector<UncertainGraph> RandomGraphs() {
  std::vector<UncertainGraph> graphs;
  Rng rng(91);
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t n = 12 + 7 * i;
    const std::size_t m = (i % 2 == 0) ? n / 2 : 3 * n;
    graphs.push_back(GenerateErdosRenyi(
        n, m, ProbabilityDistribution::Uniform(0.1, 0.9), &rng));
  }
  return graphs;
}

TEST(PossibleWorldTest, FreshViewIsTheEmptyWorld) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  PossibleWorld world(g);
  EXPECT_TRUE(world.edges().empty());
  ExpectConsistent(world);
}

TEST(PossibleWorldTest, EmptyAndFullWorlds) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  PossibleWorld empty = WorldOf(g, std::vector<char>(g.num_edges(), 0));
  EXPECT_TRUE(empty.edges().empty());
  ExpectConsistent(empty);
  PossibleWorld full = WorldOf(g, std::vector<char>(g.num_edges(), 1));
  EXPECT_EQ(full.edges().size(), g.num_edges());
  ExpectConsistent(full);
}

TEST(PossibleWorldTest, ZeroEdgeGraph) {
  UncertainGraph g = UncertainGraph::FromEdges(3, {});
  PossibleWorld world = WorldOf(g, {});
  EXPECT_TRUE(world.edges().empty());
  ExpectConsistent(world);
  std::vector<double> rank(3);
  PageRankScratch pr;
  PageRankOnWorld(world, {}, rank.data(), &pr);
  for (double r : rank) EXPECT_DOUBLE_EQ(r, 1.0 / 3.0);
  PairSearchScratch pair;
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 0, &pair), kUnreachable);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 1, &pair), 0);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 2, &pair), kUnreachable);
  std::vector<double> cc(3, -1.0);
  ClusteringScratch clustering;
  LocalClusteringOnWorld(world, cc.data(), &clustering);
  EXPECT_EQ(cc, std::vector<double>(3, 0.0));
  UnionFind uf(3);
  ConnectOnWorld(world, &uf);
  EXPECT_EQ(uf.num_components(), 3u);
}

TEST(PossibleWorldTest, IsolatedVerticesReachNothing) {
  // Vertices 2 and 5 touch no edge at all.
  UncertainGraph g = UncertainGraph::FromEdges(
      6, {{0, 1, 0.5}, {1, 3, 0.5}, {3, 4, 0.5}, {0, 4, 0.5}});
  PossibleWorld world = WorldOf(g, {1, 0, 1, 1});
  ExpectConsistent(world);
  PairSearchScratch pair;
  for (VertexId v = 0; v < 6; ++v) {
    if (v == 2 || v == 5) continue;
    EXPECT_EQ(ShortestDistanceOnWorld(world, 2, v, &pair), kUnreachable);
    EXPECT_EQ(ShortestDistanceOnWorld(world, v, 5, &pair), kUnreachable);
  }
  EXPECT_EQ(ShortestDistanceOnWorld(world, 2, 5, &pair), kUnreachable);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 3, &pair), 3);  // 1-0-4-3.
}

TEST(PossibleWorldTest, RandomWorldsMatchBitmap) {
  Rng rng(5);
  for (const UncertainGraph& g : RandomGraphs()) {
    for (double density : {0.0, 0.15, 0.5, 1.0}) {
      ExpectConsistent(WorldOf(g, RandomBitmap(g.num_edges(), density, &rng)));
    }
  }
}

TEST(PossibleWorldTest, RebuildAfterInPlaceChange) {
  // The stratified pivot case: the bitmap is rewritten in place after
  // the view was already read.
  Rng rng(6);
  for (const UncertainGraph& g : RandomGraphs()) {
    PossibleWorld world = WorldOf(g, RandomBitmap(g.num_edges(), 0.4, &rng));
    ExpectConsistent(world);
    for (int round = 0; round < 4; ++round) {
      std::vector<char>& present = world.mutable_present();
      for (std::size_t i = 0; i < 3 && !present.empty(); ++i) {
        const std::size_t e = rng.NextIndex(present.size());
        present[e] = static_cast<char>(1 - present[e]);
      }
      world.Rebuild();
      ExpectConsistent(world);
    }
  }
}

// ---- Kernels against naive bitmap references ----

std::vector<double> NaivePageRank(const UncertainGraph& g,
                                  const std::vector<char>& present,
                                  const PageRankOptions& options) {
  const std::size_t n = g.num_vertices();
  const double d = options.damping;
  std::vector<std::uint32_t> degree(n, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (present[e]) {
      ++degree[g.edge(e).u];
      ++degree[g.edge(e).v];
    }
  }
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int it = 0; it < options.max_iterations; ++it) {
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      if (degree[v] == 0) dangling += rank[v];
    }
    const double base = (1.0 - d) / static_cast<double>(n) +
                        d * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!present[e]) continue;
      const UncertainEdge& ed = g.edge(e);
      next[ed.v] += d * rank[ed.u] / static_cast<double>(degree[ed.u]);
      next[ed.u] += d * rank[ed.v] / static_cast<double>(degree[ed.v]);
    }
    double change = 0.0;
    for (VertexId v = 0; v < n; ++v) change += std::abs(next[v] - rank[v]);
    rank.swap(next);
    if (change < options.tolerance) break;
  }
  return rank;
}

/// Adjacency matrix of the present edges.
std::vector<std::vector<char>> PresentMatrix(const UncertainGraph& g,
                                             const std::vector<char>& present) {
  const std::size_t n = g.num_vertices();
  std::vector<std::vector<char>> adj(n, std::vector<char>(n, 0));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!present[e]) continue;
    adj[g.edge(e).u][g.edge(e).v] = 1;
    adj[g.edge(e).v][g.edge(e).u] = 1;
  }
  return adj;
}

std::vector<double> NaiveClustering(const UncertainGraph& g,
                                    const std::vector<char>& present) {
  const std::size_t n = g.num_vertices();
  const auto adj = PresentMatrix(g, present);
  std::vector<double> cc(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    std::size_t deg = 0;
    std::size_t triangles = 0;
    for (VertexId a = 0; a < n; ++a) {
      if (!adj[v][a]) continue;
      ++deg;
      for (VertexId b = a + 1; b < n; ++b) triangles += adj[v][b] && adj[a][b];
    }
    if (deg >= 2) {
      cc[v] = 2.0 * static_cast<double>(triangles) /
              (static_cast<double>(deg) * static_cast<double>(deg - 1));
    }
  }
  return cc;
}

/// Hop distances by edge relaxation to a fixpoint.
std::vector<int> NaiveDistances(const UncertainGraph& g,
                                const std::vector<char>& present,
                                VertexId source) {
  std::vector<int> dist(g.num_vertices(), kUnreachable);
  dist[source] = 0;
  for (bool changed = true; changed;) {
    changed = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!present[e]) continue;
      const VertexId ends[2] = {g.edge(e).u, g.edge(e).v};
      for (int side = 0; side < 2; ++side) {
        const int from = dist[ends[side]];
        int& to = dist[ends[1 - side]];
        if (from != kUnreachable && (to == kUnreachable || from + 1 < to)) {
          to = from + 1;
          changed = true;
        }
      }
    }
  }
  return dist;
}

TEST(WorldKernelTest, PageRankMatchesNaiveBitForBit) {
  Rng rng(11);
  // 30 iterations run to the cap; 300 stop on the tolerance; damping 0
  // and 1 are the ends of the valid range (at 1 the teleport base is +0
  // whenever no vertex is isolated).
  std::vector<PageRankOptions> option_sets(4);
  option_sets[0].max_iterations = 30;
  option_sets[1].max_iterations = 300;
  option_sets[2].max_iterations = 30;
  option_sets[2].damping = 0.0;
  option_sets[3].max_iterations = 30;
  option_sets[3].damping = 1.0;
  for (const PageRankOptions& options : option_sets) {
    for (const UncertainGraph& g : RandomGraphs()) {
      PageRankScratch scratch;  // Reused across worlds, as in the engine.
      for (double density : {0.1, 0.3, 1.0}) {
        std::vector<char> present = RandomBitmap(g.num_edges(), density, &rng);
        std::vector<double> rank(g.num_vertices());
        PageRankOnWorld(WorldOf(g, present), options, rank.data(), &scratch);
        EXPECT_EQ(rank, NaivePageRank(g, present, options))
            << "damping " << options.damping << " iterations "
            << options.max_iterations << " density " << density;
      }
    }
  }
}

TEST(WorldKernelTest, ClusteringMatchesNaive) {
  Rng rng(12);
  std::vector<UncertainGraph> graphs = RandomGraphs();
  // Every edge stored as (larger, smaller), so the kernel's oriented rows
  // cannot rely on stored u < v.
  graphs.push_back(LargerEndpointFirst(graphs.back()));
  for (const UncertainGraph& g : graphs) {
    ClusteringScratch scratch;  // Reused across worlds, as in the engine.
    for (double density : {0.0, 0.2, 0.6, 1.0}) {
      std::vector<char> present = RandomBitmap(g.num_edges(), density, &rng);
      std::vector<double> cc(g.num_vertices());
      LocalClusteringOnWorld(WorldOf(g, present), cc.data(), &scratch);
      EXPECT_EQ(cc, NaiveClustering(g, present)) << "density " << density;
    }
  }
}

TEST(WorldKernelTest, BfsMatchesNaive) {
  // ShortestDistanceOnWorld on every ordered pair, s == t included.
  Rng rng(13);
  std::size_t adjacent = 0;
  std::size_t disconnected = 0;
  for (const UncertainGraph& g : RandomGraphs()) {
    PairSearchScratch scratch;  // Reused across pairs and worlds.
    for (double density : {0.0, 0.2, 0.6, 1.0}) {
      std::vector<char> present = RandomBitmap(g.num_edges(), density, &rng);
      PossibleWorld world = WorldOf(g, present);
      for (VertexId s = 0; s < g.num_vertices(); ++s) {
        const std::vector<int> want = NaiveDistances(g, present, s);
        for (VertexId t = 0; t < g.num_vertices(); ++t) {
          EXPECT_EQ(ShortestDistanceOnWorld(world, s, t, &scratch), want[t])
              << "density " << density << " pair " << s << "-" << t;
          adjacent += want[t] == 1;
          disconnected += want[t] == kUnreachable;
        }
      }
    }
  }
  EXPECT_GT(adjacent, 0u);
  EXPECT_GT(disconnected, 0u);
}

TEST(WorldKernelTest, ConnectMatchesNaiveReachability) {
  Rng rng(14);
  for (const UncertainGraph& g : RandomGraphs()) {
    UnionFind uf(g.num_vertices());
    for (double density : {0.1, 0.4}) {
      std::vector<char> present = RandomBitmap(g.num_edges(), density, &rng);
      ConnectOnWorld(WorldOf(g, present), &uf);
      std::size_t components = 0;
      for (VertexId s = 0; s < g.num_vertices(); ++s) {
        std::vector<int> dist = NaiveDistances(g, present, s);
        bool smallest = true;
        for (VertexId t = 0; t < g.num_vertices(); ++t) {
          EXPECT_EQ(uf.Connected(s, t), dist[t] != kUnreachable);
          if (t < s && dist[t] != kUnreachable) smallest = false;
        }
        components += smallest;
      }
      EXPECT_EQ(uf.num_components(), components);
    }
  }
}

}  // namespace
}  // namespace ugs
