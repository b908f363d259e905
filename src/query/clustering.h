#ifndef UGS_QUERY_CLUSTERING_H_
#define UGS_QUERY_CLUSTERING_H_

#include <cstdint>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/sample_engine.h"
#include "query/world_sampler.h"
#include "util/random.h"

namespace ugs {

/// McClusteringCoefficient: the engine-taking kernel the registry runs.

/// Per-task scratch of LocalClusteringOnWorld, reused across worlds.
struct ClusteringScratch {
  std::vector<std::uint32_t> degree;  ///< Present-edge degree per vertex.
  /// Oriented rows: row u = higher[offsets[u], offsets[u + 1]) holds
  /// u's present neighbours above u.
  std::vector<std::size_t> offsets;
  std::vector<VertexId> higher;
  std::vector<VertexId> mark;
  std::vector<std::size_t> triangles;
};

/// Local clustering coefficient of every vertex in one world, written to
/// cc[0..|V|): cc(v) = 2 * triangles(v) / (deg(v) * (deg(v)-1)); 0 when
/// deg(v) < 2. Builds each vertex's higher neighbours from the world's
/// edge list into `scratch`, then counts triangles with a marker array.
void LocalClusteringOnWorld(const PossibleWorld& world, double* cc,
                            ClusteringScratch* scratch);

/// Monte-Carlo clustering coefficient (query (iv) of Section 6.3);
/// unit = vertex. Worlds are dispatched through `engine` (deterministic
/// at any thread count).
McSamples McClusteringCoefficient(const UncertainGraph& graph,
                                  int num_samples, Rng* rng,
                                  const SampleEngine& engine);

}  // namespace ugs

#endif  // UGS_QUERY_CLUSTERING_H_
