#ifndef UGS_QUERY_ESTIMATOR_POLICY_H_
#define UGS_QUERY_ESTIMATOR_POLICY_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "query/query.h"

namespace ugs {

/// Auto picks the block sampler (kSkipSampler) only for requests of at
/// least this many samples. The block sampler decides a whole block of
/// 16 worlds per pass whatever the request needs, so a small request
/// pays for worlds it throws away. bench_micro's BM_SampleRequest rungs
/// on the serve_miss-shaped graph (one pinned CPU of a shared 4-vCPU
/// VM) put a block at ~1.2-1.5 ms and a plain world at ~0.25-0.32 ms,
/// a break-even near 4.7 worlds: plain wins at 1, 2 and (narrowly) 4
/// samples, the block from 8. Requests below this draw the plain stream.
inline constexpr int kBlockSamplerMinSamples = 5;

/// Tunables of the estimator-selection policy. The defaults encode the
/// paper's operating points; a serving layer can override per deployment.
struct EstimatorPolicyOptions {
  /// Auto picks kSkipSampler (the block sampler) when the graph's mean
  /// edge probability is below this. The block sampler decides 16 worlds
  /// per pass over the edges and hands each world over as a sorted edge
  /// list; its cost per world grows with the present edges, so it wins
  /// most on low-probability graphs (the paper's datasets average
  /// p ~ 0.1-0.2). The threshold predates it: bench_micro's
  /// BM_SampleRequest rungs measure it against plain sampling at mean
  /// p ~ 0.16 and ~ 0.5.
  double skip_sampler_max_mean_probability = 0.25;
};

/// Resolves the execution strategy for `request` among the query's
/// `supported` estimators.
///
/// Explicit (non-kAuto) choices are honored after two checks: the query
/// must support the estimator (InvalidArgument otherwise), and kExact
/// additionally needs |E| <= kMaxExactEdges (FailedPrecondition --
/// enumeration is 2^|E| worlds by definition).
///
/// kAuto resolves, in order:
///   1. kDeterministic when supported -- the query never needed
///      possible-world sampling.
///   2. kExact when supported and enumeration is both feasible
///      (|E| <= kMaxExactEdges) and no more expensive than the sampling
///      budget (2^|E| * max(1, |pairs|) <= num_samples -- the exact
///      oracles enumerate once per pair, one sampled world serves all
///      pairs): no extra cost, zero variance.
///   3. kSkipSampler (the block sampler) when supported, the request
///      has at least kBlockSamplerMinSamples samples and the graph's
///      worlds are sparse enough (see EstimatorPolicyOptions).
///   4. kSampled.
/// kStratified is never auto-selected: its variance win depends on the
/// entropy concentration of the pivot edges, which the policy cannot
/// cheaply certify, and its random stream differs from plain sampling --
/// callers opt in per request.
[[nodiscard]] Result<Estimator> SelectEstimator(
    const UncertainGraph& graph, const QueryRequest& request,
    const std::vector<Estimator>& supported,
    const EstimatorPolicyOptions& options = {});

}  // namespace ugs

#endif  // UGS_QUERY_ESTIMATOR_POLICY_H_
