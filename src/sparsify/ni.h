#ifndef UGS_SPARSIFY_NI_H_
#define UGS_SPARSIFY_NI_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ugs {

/// The Nagamochi-Ibaraki cut-sparsifier benchmark adapted to uncertain
/// graphs (paper Section 3.2 and appendix Algorithm 4):
///
///   1. transform probabilities to integer weights w_e = round(p_e/p_min);
///   2. run NI forest decomposition: iteratively peel spanning forests
///      (contiguous: an edge of forest r-1 that is still alive joins
///      forest r), decrement weights, and when an edge's weight reaches 0
///      at round r sample it with l_e = min(log n / (eps^2 r), 1), keeping
///      it with inflated weight w'_e = w_e / l_e;
///   3. calibrate eps by factor theta = 1.1 until the first run with
///      |E'| <= alpha |E| (from above) / the last such run (from below),
///      in at most 60 runs;
///   4. fill the remaining alpha|E| - |E'| edges by Monte-Carlo sampling
///      with the original probabilities;
///   5. transform back: p'_e = min(w'_e * p_min, 1).
struct NiOptions {
  /// Cap on transformed integer weights; bounds the number of peeling
  /// rounds when p_min is pathologically small. Reported when it binds.
  int max_weight = 10000;
};

struct NiResult {
  std::vector<EdgeId> edges;            ///< ids into graph.edges().
  std::vector<double> probabilities;    ///< parallel to edges.
  double epsilon_used = 0.0;
  int calibration_runs = 0;
  bool weight_cap_hit = false;
};

/// One raw NI pass (steps 1-2 only) at a fixed eps; returns sampled edge
/// ids and their inflated weights. Exposed for unit tests.
struct NiCoreResult {
  std::vector<EdgeId> edges;
  std::vector<double> inflated_weights;  ///< w'_e, parallel to edges.
  int rounds = 0;
};
NiCoreResult RunNiCore(const UncertainGraph& graph,
                       const std::vector<int>& weights, double epsilon,
                       Rng* rng);

/// The full adapted benchmark (steps 1-5). Calibration runs are
/// evaluated speculatively in batches as wide as `thread_pool`; the
/// result is the same at any pool width.
[[nodiscard]] Result<NiResult> NiSparsify(const UncertainGraph& graph,
                                          double alpha,
                                          const NiOptions& options, Rng* rng,
                                          ThreadPool& thread_pool);

}  // namespace ugs

#endif  // UGS_SPARSIFY_NI_H_
