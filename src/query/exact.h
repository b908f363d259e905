#ifndef UGS_QUERY_EXACT_H_
#define UGS_QUERY_EXACT_H_

#include <cstddef>

#include "graph/uncertain_graph.h"
#include "util/thread_pool.h"

namespace ugs {

/// Exact possible-world enumeration (Equation 1): evaluates a statistic
/// on all 2^|E| deterministic worlds and aggregates by world probability. Exponential by definition -- the graph must have at most
/// kMaxExactEdges edges. These are the ground-truth oracles for testing
/// the Monte-Carlo estimators (e.g., the paper's Figure 1 values
/// Pr[G connected] = 0.219 and Pr[G' connected] = 0.216), and the kernels
/// the registry dispatches to.
///
/// Each oracle enumerates worlds in fixed 4096-world chunks on the given
/// pool, reducing chunk partials in chunk order, so they parallelize while
/// staying bit-identical at any thread count. GraphSession passes its
/// engine's pool.
inline constexpr std::size_t kMaxExactEdges = 24;

/// Pr[the world is a single connected component] (isolated vertices count
/// as disconnecting; a 1-vertex graph is connected).
double ExactConnectivityProbability(const UncertainGraph& graph,
                                    ThreadPool& pool);

/// Pr[t reachable from s].
double ExactReliability(const UncertainGraph& graph, VertexId s, VertexId t,
                        ThreadPool& pool);

/// Expected ShortestDistanceOnWorld(s, t) conditioned on connectivity
/// (the paper's SP semantics). If connectivity_probability is non-null it
/// receives Pr[s ~ t]. Returns 0 when the pair is never connected.
double ExactExpectedDistance(const UncertainGraph& graph, VertexId s,
                             VertexId t, double* connectivity_probability,
                             ThreadPool& pool);

}  // namespace ugs

#endif  // UGS_QUERY_EXACT_H_
