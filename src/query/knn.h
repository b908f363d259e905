#ifndef UGS_QUERY_KNN_H_
#define UGS_QUERY_KNN_H_

#include <vector>

#include "graph/uncertain_graph.h"

namespace ugs {

/// MostProbableKnn is the per-source kernel the registry dispatches to.

/// K-nearest-neighbor queries on uncertain graphs under the
/// most-probable-path distance (Potamias et al., PVLDB 2010 -- the
/// paper's reference [32]): the k vertices whose best path from the
/// source has the highest existence probability.
struct KnnResult {
  VertexId vertex = 0;
  double path_probability = 0.0;  ///< prod p_e of the best path.
};

/// The k nearest neighbors of `source` (excluding source itself), sorted
/// by decreasing path probability. Returns fewer than k entries when the
/// reachable component is smaller. Dijkstra with early exit after k
/// settled targets.
std::vector<KnnResult> MostProbableKnn(const UncertainGraph& graph,
                                       VertexId source, std::size_t k);

}  // namespace ugs

#endif  // UGS_QUERY_KNN_H_
