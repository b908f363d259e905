#ifndef UGS_SPARSIFY_SPANNER_H_
#define UGS_SPARSIFY_SPANNER_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "util/random.h"
#include "util/status.h"

namespace ugs {

/// The spanner benchmark S of the paper (Section 3.2 + appendix
/// Algorithm 5): Baswana-Sen randomized (2t-1)-spanner over the weight
/// transform w_e = -log(p_e) (preserving most-probable paths), with
///
///   * t chosen as the smallest integer >= 2 with t n^(1+1/t) <= alpha|E|
///     (the paper solves alpha|E| = t n^(1+1/t)), calibrated upward while
///     the spanner overshoots;
///   * a final cluster-joining pass that connects leftover components
///     (appendix lines 26-28);
///   * retained edges keep their original probabilities;
///   * remaining budget filled by Monte-Carlo edge sampling.
struct SpannerOptions {
  int max_t = 24;                ///< calibration ceiling for t.
};

struct SpannerResult {
  std::vector<EdgeId> edges;     ///< ids into graph.edges().
  int t_used = 0;
};

/// One raw Baswana-Sen run at fixed t over the given weights (lower is
/// better). Returns the spanner edge ids, including the connectivity
/// pass. Exposed for unit tests (stretch property).
std::vector<EdgeId> BaswanaSenSpanner(const UncertainGraph& graph,
                                      const std::vector<double>& weights,
                                      int t, Rng* rng);

/// The full adapted benchmark.
[[nodiscard]] Result<SpannerResult> SpannerSparsify(
    const UncertainGraph& graph, double alpha, const SpannerOptions& options,
    Rng* rng);

}  // namespace ugs

#endif  // UGS_SPARSIFY_SPANNER_H_
