#ifndef UGS_METRICS_DISCREPANCY_H_
#define UGS_METRICS_DISCREPANCY_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "sparsify/sparse_state.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ugs {

/// Per-vertex degree discrepancies delta(u) of a sparsified graph against
/// its original (absolute: d_G(u) - d_G'(u); relative: divided by d_G(u)).
/// The sparsified graph must be over the same vertex set.
std::vector<double> DegreeDiscrepancies(const UncertainGraph& original,
                                        const UncertainGraph& sparsified,
                                        DiscrepancyType type);

/// Mean absolute error of the degree discrepancy (the Table 2 / Figure 6
/// metric): mean_u |delta(u)|.
double DegreeDiscrepancyMae(const UncertainGraph& original,
                            const UncertainGraph& sparsified,
                            DiscrepancyType type = DiscrepancyType::kAbsolute);

/// Expected cut size C_G(S) (Definition 1): sum of probabilities of edges
/// with exactly one endpoint in S. O(sum_{u in S} deg(u)).
double ExpectedCutSize(const UncertainGraph& graph,
                       const std::vector<VertexId>& set);

/// Settings for the sampled cut-discrepancy MAE (Figure 4(a)/6(b,d)/7(b)).
/// The paper samples 1000 random k-cuts for every k in [1, |V|]; that is
/// quadratic at scale, so we sample `sets_per_k` cuts at `num_k_values`
/// k-values spread geometrically over [1, |V| - 1] by default.
struct CutSampleOptions {
  int num_k_values = 16;
  int sets_per_k = 64;
};

/// MAE of |delta_A(S)| over sampled vertex sets. Deterministic given rng;
/// the sets are sampled in parallel on `pool` with the same value at any
/// pool width.
double CutDiscrepancyMae(const UncertainGraph& original,
                         const UncertainGraph& sparsified,
                         const CutSampleOptions& options, Rng* rng,
                         ThreadPool& pool);

/// MAE of |delta_A(S)| over `num_sets` random sets of one fixed
/// cardinality (used by the GDB-k ablation to ask "how well are k-cuts
/// of exactly this size preserved?").
double CutDiscrepancyMaeForSetSize(const UncertainGraph& original,
                                   const UncertainGraph& sparsified,
                                   std::size_t set_size, int num_sets,
                                   Rng* rng, ThreadPool& pool);

/// Relative entropy H(G') / H(G) (Figure 8).
double RelativeEntropy(const UncertainGraph& original,
                       const UncertainGraph& sparsified);

}  // namespace ugs

#endif  // UGS_METRICS_DISCREPANCY_H_
