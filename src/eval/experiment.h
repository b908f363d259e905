#ifndef UGS_EVAL_EXPERIMENT_H_
#define UGS_EVAL_EXPERIMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/graph_session.h"
#include "query/query.h"
#include "sparsify/sparsifier.h"
#include "util/random.h"

namespace ugs {

/// Common command-line configuration for the bench binaries. Every binary
/// runs without arguments at laptop-scale defaults; flags override:
///   --scale=<f>   multiply dataset sizes (default 1.0, env UGS_BENCH_SCALE)
///   --seed=<u>    RNG seed (default 1)
///   --quick       cut sample counts for smoke runs (env UGS_BENCH_QUICK)
///   --threads=<n> width of the pool each binary builds for its engine
///                 and sparsifiers (default hardware concurrency, env
///                 UGS_THREADS); results are bit-identical at any value
///                 (SampleEngine contract)
struct BenchConfig {
  double scale = 1.0;
  std::uint64_t seed = 1;
  bool quick = false;
  int threads = 0;  ///< 0 = hardware concurrency.

  /// Scales an iteration/sample count down in --quick mode.
  int Samples(int full, int quick_value) const {
    return quick ? quick_value : full;
  }
};

/// Parses flags; unknown flags abort with usage. `description` is printed
/// in the banner.
BenchConfig ParseBenchArgs(int argc, char** argv,
                           const std::string& description);

/// The sparsification ratios of the paper's experiments: 8..64%.
std::vector<double> PaperAlphas();

/// The density sweep of the synthetic experiments: 15/30/50/90 %.
std::vector<int> PaperDensities();

/// Runs a named sparsifier variant and aborts on failure (bench context:
/// inputs are known-valid).
SparsifyOutput MustSparsify(const Sparsifier& method,
                            const UncertainGraph& graph, double alpha,
                            Rng* rng);

/// Runs a query request through a GraphSession and aborts on failure
/// (bench context: requests are known-valid). The facade counterpart of
/// MustSparsify for evaluation workloads.
QueryResult MustQuery(const GraphSession& session,
                      const QueryRequest& request);

}  // namespace ugs

#endif  // UGS_EVAL_EXPERIMENT_H_
