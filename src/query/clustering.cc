#include "query/clustering.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <span>

#include "util/check.h"

namespace ugs {

void LocalClusteringOnWorld(const PossibleWorld& world, double* cc,
                            ClusteringScratch* scratch) {
  const UncertainGraph& graph = world.graph();
  const std::size_t n = graph.num_vertices();
  const std::span<const EdgeId> edges = world.edges();
  std::vector<std::uint32_t>& degree = scratch->degree;
  std::vector<std::size_t>& offsets = scratch->offsets;
  std::vector<VertexId>& higher = scratch->higher;
  degree.assign(n, 0);
  offsets.assign(n + 1, 0);

  // Orient every edge from its lower endpoint to its higher one (edges
  // are stored as given, so u > v occurs). Pass 1 counts both degrees and
  // each row's length; after the prefix sum offsets[u] is the end of row
  // u. Pass 2 walks the edges from the highest id down and fills each
  // row from its end, which leaves every row in ascending edge id and
  // offsets[u] at the start of row u.
  for (EdgeId e : edges) {
    const UncertainEdge& ed = graph.edge(e);
    ++degree[ed.u];
    ++degree[ed.v];
    ++offsets[std::min(ed.u, ed.v)];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  higher.resize(offsets[n]);
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    const UncertainEdge& ed = graph.edge(*it);
    higher[--offsets[std::min(ed.u, ed.v)]] = std::max(ed.u, ed.v);
  }
  const auto row = [&](VertexId u) {
    return std::span<const VertexId>(higher.data() + offsets[u],
                                     higher.data() + offsets[u + 1]);
  };

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
    const std::span<const VertexId> higher_u = row(u);
    for (VertexId v : higher_u) mark[v] = u;
    for (VertexId v : higher_u) {
      for (VertexId w : row(v)) {
        if (mark[w] == u) {
          ++triangles[u];
          ++triangles[v];
          ++triangles[w];
        }
      }
    }
  }

  for (VertexId v = 0; v < n; ++v) {
    const std::size_t deg = degree[v];
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
