#ifndef UGS_SPARSIFY_REPRESENTATIVE_H_
#define UGS_SPARSIFY_REPRESENTATIVE_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ugs {

/// Deterministic representative instances (the paper's Section 2.3
/// comparison point, after Parchas et al. [29, 30]): a single
/// deterministic graph approximating the expected vertex degrees of the
/// uncertain graph. Representatives answer deterministic queries cheaply
/// but -- as the paper stresses -- cannot answer queries whose output is
/// itself probabilistic (connectivity probability, reliability), and give
/// no control over the number of edges. The bench_ablation binary
/// measures both limitations against sparsified graphs.
///
/// Both extractors return edge ids into graph.edges(); the representative
/// is the deterministic graph on exactly those edges (p = 1).

/// Most-probable-edges baseline: keep every edge with p >= 0.5 (the
/// modal possible world under independence).
std::vector<EdgeId> ModalRepresentative(const UncertainGraph& graph);

/// Degree-based greedy in the spirit of [29]'s ADR: process vertices in
/// random order; for each vertex, add its highest-probability unused
/// incident edges while the vertex's degree is below its (rounded)
/// expected degree and the neighbor still has residual degree budget.
/// Approximately preserves the expected degree of every vertex. The
/// incidence lists are sorted in parallel on `pool`; the result is the
/// same at any pool width.
std::vector<EdgeId> GreedyDegreeRepresentative(const UncertainGraph& graph,
                                               Rng* rng, ThreadPool& pool);

/// Mean absolute difference between representative degrees and expected
/// degrees: mean_u |deg_R(u) - d_G(u)| (the representative analogue of
/// the degree-discrepancy MAE).
double RepresentativeDegreeMae(const UncertainGraph& graph,
                               const std::vector<EdgeId>& representative);

/// Materializes the representative as a deterministic UncertainGraph
/// (all kept edges get probability 1), for running the query engine on.
UncertainGraph MaterializeRepresentative(
    const UncertainGraph& graph, const std::vector<EdgeId>& representative);

}  // namespace ugs

#endif  // UGS_SPARSIFY_REPRESENTATIVE_H_
