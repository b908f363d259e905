#ifndef UGS_QUERY_PAGERANK_H_
#define UGS_QUERY_PAGERANK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/sample_engine.h"
#include "query/world_sampler.h"
#include "util/random.h"

namespace ugs {

/// McPageRank is the engine-taking kernel the registry dispatches to.

/// PageRank settings. Worlds are undirected, so each present edge conducts
/// rank both ways; dangling vertices (no present edge) spread uniformly.
struct PageRankOptions {
  double damping = 0.85;
  int max_iterations = 50;
  double tolerance = 1e-10;  ///< L1 change per iteration to stop early.
};

/// Per-task scratch of PageRankOnWorld, reused across worlds.
struct PageRankScratch {
  std::vector<std::uint32_t> degree;
  std::vector<double> next;
  std::vector<double> contrib;  ///< d * rank[u] / degree[u] per vertex.
  /// Endpoints of the present edges, ascending edge id.
  std::vector<std::pair<VertexId, VertexId>> endpoints;
};

/// PageRank vector (sums to 1) of one world, written to rank[0..|V|).
/// Each iteration walks the present edges in ascending id, so every
/// vertex's incoming rank is summed in a fixed order (the determinism
/// contract, docs/architecture.md).
void PageRankOnWorld(const PossibleWorld& world,
                     const PageRankOptions& options, double* rank,
                     PageRankScratch* scratch);

/// Monte-Carlo PageRank over `num_samples` sampled worlds; unit = vertex.
/// This is evaluation query (i) of Section 6.3. Worlds are dispatched
/// through `engine` (deterministic at any thread count).
McSamples McPageRank(const UncertainGraph& graph, int num_samples, Rng* rng,
                     const PageRankOptions& options,
                     const SampleEngine& engine);

}  // namespace ugs

#endif  // UGS_QUERY_PAGERANK_H_
