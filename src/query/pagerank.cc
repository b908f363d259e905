#include "query/pagerank.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/check.h"

namespace ugs {

void PageRankOnWorld(const PossibleWorld& world,
                     const PageRankOptions& options, double* rank,
                     PageRankScratch* scratch) {
  const UncertainGraph& graph = world.graph();
  const std::size_t n = graph.num_vertices();
  UGS_CHECK(n > 0);
  const double d = options.damping;

  std::vector<std::uint32_t>& degree = scratch->degree;
  std::vector<std::pair<VertexId, VertexId>>& ends = scratch->endpoints;
  degree.assign(n, 0);
  ends.clear();
  for (EdgeId e : world.edges()) {
    const UncertainEdge& ed = graph.edge(e);
    ++degree[ed.u];
    ++degree[ed.v];
    ends.emplace_back(ed.u, ed.v);
  }
  scratch->next.resize(n);
  scratch->contrib.resize(n);
  double* contrib = scratch->contrib.data();

  double* cur = rank;
  double* next = scratch->next.data();
  std::fill(cur, cur + n, 1.0 / static_cast<double>(n));
  for (int it = 0; it < options.max_iterations; ++it) {
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      if (degree[v] == 0) {
        dangling += cur[v];
      } else {
        contrib[v] = d * cur[v] / static_cast<double>(degree[v]);
      }
    }
    const double base =
        (1.0 - d) / static_cast<double>(n) +
        d * dangling / static_cast<double>(n);
    std::fill(next, next + n, base);
    for (const auto& [u, v] : ends) {
      next[v] += contrib[u];
      next[u] += contrib[v];
    }
    double change = 0.0;
    for (VertexId v = 0; v < n; ++v) change += std::abs(next[v] - cur[v]);
    std::swap(cur, next);
    if (change < options.tolerance) break;
  }
  if (cur != rank) std::copy(cur, cur + n, rank);
}

McSamples McPageRank(const UncertainGraph& graph, int num_samples, Rng* rng,
                     const PageRankOptions& options,
                     const SampleEngine& engine) {
  return engine.Run(
      graph, graph.num_vertices(), num_samples, rng, /*track_valid=*/false,
      [options]() -> SampleEngine::WorldEval {
        auto scratch = std::make_shared<PageRankScratch>();
        return [options, scratch](PossibleWorld& world, double* row, char*) {
          PageRankOnWorld(world, options, row, scratch.get());
        };
      });
}

}  // namespace ugs
