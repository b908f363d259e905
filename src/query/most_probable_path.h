#ifndef UGS_QUERY_MOST_PROBABLE_PATH_H_
#define UGS_QUERY_MOST_PROBABLE_PATH_H_

#include <vector>

#include "graph/uncertain_graph.h"

namespace ugs {

/// FindMostProbablePath is the kernel the registry dispatches to.

/// Most-probable-path queries (Potamias et al., PVLDB 2010 -- the paper's
/// reference [32], whose -log p weight transform the SS benchmark
/// reuses): the path P maximizing prod_{e in P} p_e, i.e. the shortest
/// path under w_e = -log p_e. Deterministic (no possible-world sampling),
/// so it runs directly on the uncertain graph.
struct MostProbablePath {
  std::vector<VertexId> vertices;  ///< s ... t; empty if unreachable.
  double probability = 0.0;        ///< prod p_e along the path.
};

/// Dijkstra under -log p weights from s to t. Edges with p = 0 are
/// impassable.
MostProbablePath FindMostProbablePath(const UncertainGraph& graph,
                                      VertexId s, VertexId t);

/// The probability of the most probable path from s to every vertex
/// (0 for unreachable). One Dijkstra run.
std::vector<double> MostProbablePathProbabilities(const UncertainGraph& graph,
                                                  VertexId s);

}  // namespace ugs

#endif  // UGS_QUERY_MOST_PROBABLE_PATH_H_
