#include "query/clustering.h"

#include <memory>
#include <span>

#include "util/check.h"

namespace ugs {

void LocalClusteringOnWorld(const PossibleWorld& world, double* cc,
                            ClusteringScratch* scratch) {
  const std::size_t n = world.graph().num_vertices();
  constexpr VertexId kUnmarked = static_cast<VertexId>(-1);
  std::vector<VertexId>& mark = scratch->mark;
  std::vector<std::size_t>& triangles = scratch->triangles;
  mark.assign(n, kUnmarked);
  triangles.assign(n, 0);

  // Each triangle u < v < w is found once, from its smallest vertex u:
  // mark u's higher neighbors, then for every higher neighbor v of u look
  // for marked higher neighbors w of v. The graph has no self loops or
  // parallel edges, so the integer counts equal any other exact triangle
  // count.
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const VertexId> higher_u = world.HigherNeighbors(u);
    for (VertexId v : higher_u) mark[v] = u;
    for (VertexId v : higher_u) {
      for (VertexId w : world.HigherNeighbors(v)) {
        if (mark[w] == u) {
          ++triangles[u];
          ++triangles[v];
          ++triangles[w];
        }
      }
    }
  }

  for (VertexId v = 0; v < n; ++v) {
    const std::size_t deg = world.Neighbors(v).size();
    if (deg < 2) {
      cc[v] = 0.0;
      continue;
    }
    cc[v] = 2.0 * static_cast<double>(triangles[v]) /
            (static_cast<double>(deg) * static_cast<double>(deg - 1));
  }
}

McSamples McClusteringCoefficient(const UncertainGraph& graph,
                                  int num_samples, Rng* rng,
                                  const SampleEngine& engine) {
  return engine.Run(
      graph, graph.num_vertices(), num_samples, rng, /*track_valid=*/false,
      []() -> SampleEngine::WorldEval {
        auto scratch = std::make_shared<ClusteringScratch>();
        return [scratch](PossibleWorld& world, double* row, char*) {
          LocalClusteringOnWorld(world, row, scratch.get());
        };
      });
}

}  // namespace ugs
