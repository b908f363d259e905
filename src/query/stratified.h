#ifndef UGS_QUERY_STRATIFIED_H_
#define UGS_QUERY_STRATIFIED_H_

#include <functional>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/sample_engine.h"
#include "util/random.h"

namespace ugs {

/// StratifiedEstimate is the engine-taking kernel the registry dispatches to.

/// Stratified Monte-Carlo estimation for uncertain-graph queries, after
/// the recursive stratified sampling of Li et al., ICDE 2014 (the paper's
/// reference [23] for sampling cost and variance).
///
/// The world space is partitioned into 2^r strata by conditioning on the
/// r highest-entropy edges: each stratum fixes those edges' states and
/// carries the exact probability of that assignment. Within a stratum,
/// the remaining edges are sampled independently and the per-stratum
/// means are combined by stratum probability. The estimator is unbiased
/// and its variance is at most plain Monte-Carlo's at equal sample budget
/// (proportional allocation removes the across-strata variance
/// component).
struct StratifiedOptions {
  int num_pivot_edges = 8;   ///< r; 2^r strata, capped at |E|.
  int total_samples = 512;   ///< budget allocated across strata.
};

/// A query evaluated on one deterministic world: receives the world's
/// view (query/world_sampler.h) and returns a scalar.
using WorldQuery = std::function<double(const PossibleWorld&)>;

/// Builds a WorldQuery together with its scratch state. The factory is
/// invoked once per engine batch, so queries built through it may hold
/// mutable scratch without being thread-safe themselves.
using WorldQueryFactory = std::function<WorldQuery()>;

/// Stratified estimate of E[query(world)], sampling within each stratum
/// through `engine` (deterministic at any thread count).
double StratifiedEstimate(const UncertainGraph& graph,
                          const WorldQueryFactory& factory,
                          const StratifiedOptions& options, Rng* rng,
                          const SampleEngine& engine);

/// Plain Monte-Carlo estimate with the same budget, for comparison.
double MonteCarloEstimate(const UncertainGraph& graph,
                          const WorldQueryFactory& factory,
                          int total_samples, Rng* rng,
                          const SampleEngine& engine);

/// The r edges with the highest entropy H(p_e) (the pivots used for
/// stratification). Exposed for tests.
std::vector<EdgeId> HighestEntropyEdges(const UncertainGraph& graph, int r);

}  // namespace ugs

#endif  // UGS_QUERY_STRATIFIED_H_
