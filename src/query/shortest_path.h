#ifndef UGS_QUERY_SHORTEST_PATH_H_
#define UGS_QUERY_SHORTEST_PATH_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "query/sample_engine.h"
#include "query/world_sampler.h"
#include "util/random.h"

namespace ugs {

/// McShortestPath is the engine-taking kernel the registry dispatches to.

/// Distance marker for unreachable vertices in a world.
inline constexpr int kUnreachable = -1;

/// A source/target query pair.
struct VertexPair {
  VertexId s = 0;
  VertexId t = 0;
};

/// Per-task scratch of BfsOnWorld, reused across sources and worlds.
struct BfsScratch {
  std::vector<int> dist;  ///< Hop distances from the last source.
  std::vector<VertexId> queue;
};

/// BFS hop distances from `source` over the world's present-only
/// adjacency, into bfs->dist (|V| entries; kUnreachable where not
/// reached). Worlds are unweighted (paper assumption), so BFS is the
/// shortest-path computation.
void BfsOnWorld(const PossibleWorld& world, VertexId source, BfsScratch* bfs);

/// Draws `count` distinct ordered pairs (s != t) uniformly.
std::vector<VertexPair> SampleDistinctPairs(std::size_t num_vertices,
                                            std::size_t count, Rng* rng);

/// Monte-Carlo shortest-path distance (query (ii) of Section 6.3):
/// unit = pair; a sample is valid only when the pair is connected in that
/// world ("excluding the ones that disconnect them"). Pairs sharing a
/// source share one BFS per world. Worlds are dispatched through `engine`
/// (deterministic at any thread count).
McSamples McShortestPath(const UncertainGraph& graph,
                         const std::vector<VertexPair>& pairs,
                         int num_samples, Rng* rng,
                         const SampleEngine& engine);

}  // namespace ugs

#endif  // UGS_QUERY_SHORTEST_PATH_H_
