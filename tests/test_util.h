#ifndef UGS_TESTS_TEST_UTIL_H_
#define UGS_TESTS_TEST_UTIL_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "query/world_sampler.h"

namespace ugs {
namespace testing_util {

/// The worked-example graph of the paper's Figures 2-3 (reconstructed in
/// DESIGN.md; validated by the initial objective D1 = 0.56 and entropy
/// H = 3.85 the paper quotes). Edge ids in insertion order:
///   0: (u1,u2) p=0.4    1: (u1,u3) p=0.2    2: (u1,u4) p=0.2
///   3: (u2,u4) p=0.1    4: (u3,u4) p=0.4
/// Vertices are 0-based: u1 = 0, ..., u4 = 3.
inline UncertainGraph PaperFigure2Graph() {
  return UncertainGraph::FromEdges(4, {{0, 1, 0.4},
                                       {0, 2, 0.2},
                                       {0, 3, 0.2},
                                       {1, 3, 0.1},
                                       {2, 3, 0.4}});
}

/// The paper's Figure 2 backbone (bold edges): (u1,u4), (u2,u4), (u3,u4).
inline std::vector<EdgeId> PaperFigure2Backbone() { return {2, 3, 4}; }

/// The complete graph K4 with uniform edge probability p (the paper's
/// Figure 1(a) uses p = 0.3).
inline UncertainGraph CompleteK4(double p) {
  return UncertainGraph::FromEdges(
      4, {{0, 1, p}, {0, 2, p}, {0, 3, p}, {1, 2, p}, {1, 3, p}, {2, 3, p}});
}

/// Path graph 0-1-2-...-(n-1) with uniform probability.
inline UncertainGraph PathGraph(std::size_t n, double p) {
  std::vector<UncertainEdge> edges;
  for (VertexId i = 0; i + 1 < n; ++i) {
    edges.push_back({i, static_cast<VertexId>(i + 1), p});
  }
  return UncertainGraph::FromEdges(n, std::move(edges));
}

/// Star graph: center 0 connected to 1..n-1 with uniform probability.
inline UncertainGraph StarGraph(std::size_t n, double p) {
  std::vector<UncertainEdge> edges;
  for (VertexId i = 1; i < n; ++i) {
    edges.push_back({0, i, p});
  }
  return UncertainGraph::FromEdges(n, std::move(edges));
}

/// The world of `graph` with the given presence flags, view rebuilt.
/// `graph` must outlive the returned view.
inline PossibleWorld WorldOf(const UncertainGraph& graph,
                             std::vector<char> present) {
  PossibleWorld world(graph);
  world.mutable_present() = std::move(present);
  world.Rebuild();
  return world;
}

}  // namespace testing_util
}  // namespace ugs

#endif  // UGS_TESTS_TEST_UTIL_H_
