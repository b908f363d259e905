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

/// Per-task scratch of ShortestDistanceOnWorld, reused across pairs and
/// worlds. Between searches every label is 0.
struct PairSearchScratch {
  /// Per vertex: d + 1 when the search from s reached it at depth d,
  /// -(d + 1) when the search from t did, 0 when neither did.
  std::vector<int> label;
  /// Each side's reached vertices in BFS order: its levels, and the list
  /// of labels to reset once the search ends.
  std::vector<VertexId> queue[2];
};

/// Hop distance from s to t in the world (0 when s == t), or kUnreachable.
/// Worlds are unweighted (paper assumption), so BFS is the shortest-path
/// computation. The search is level-synchronous and bidirectional over
/// the graph's own rows, testing each entry against world.present(): it
/// expands the side with the smaller frontier by one whole level, takes
/// the minimum over every meeting in that level, and stops as unreachable
/// once either frontier is empty. It resets only the labels it set.
int ShortestDistanceOnWorld(const PossibleWorld& world, VertexId s, VertexId t,
                            PairSearchScratch* scratch);

/// Draws `count` distinct ordered pairs (s != t) uniformly.
std::vector<VertexPair> SampleDistinctPairs(std::size_t num_vertices,
                                            std::size_t count, Rng* rng);

/// Monte-Carlo shortest-path distance (query (ii) of Section 6.3):
/// unit = pair; a sample is valid only when the pair is connected in that
/// world ("excluding the ones that disconnect them"). Each pair is one
/// ShortestDistanceOnWorld search per world. Worlds are dispatched
/// through `engine` (deterministic at any thread count).
McSamples McShortestPath(const UncertainGraph& graph,
                         const std::vector<VertexPair>& pairs,
                         int num_samples, Rng* rng,
                         const SampleEngine& engine);

}  // namespace ugs

#endif  // UGS_QUERY_SHORTEST_PATH_H_
