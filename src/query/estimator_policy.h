#ifndef UGS_QUERY_ESTIMATOR_POLICY_H_
#define UGS_QUERY_ESTIMATOR_POLICY_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "query/query.h"

namespace ugs {

/// Auto picks the block sampler (kSkipSampler) only for requests of at
/// least this many samples: one whole block. The block sampler decides
/// 16 worlds per pass whatever the request needs, so a smaller request
/// pays for worlds it throws away, and a block costs more the more
/// edges are present. bench_micro's BM_SampleRequest rungs (one pinned
/// CPU of a shared 4-vCPU VM, medians, plain world vs first block):
/// on the serve_miss-shaped graph (mean p ~0.16) ~0.3 ms vs ~1.3-1.6 ms,
/// so the block wins from 5 samples; with the same edges at mean p ~0.5
/// ~0.3 ms vs ~3.6-4.3 ms, so plain wins up to 8 samples, the two are
/// even at 12 and the block wins at 16. 16 is the smallest count at
/// which the block wins on both; requests below it draw the plain
/// stream.
inline constexpr int kBlockSamplerMinSamples = 16;

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
///   3. kSkipSampler (the block sampler) when supported and the request
///      has at least kBlockSamplerMinSamples samples, whatever the
///      graph's mean edge probability: bench_micro's BM_SampleRequest
///      rungs put a block-sampled world at ~100 us against ~350 us plain
///      at mean p ~0.16, and at ~210 against ~350 us at mean p ~0.5
///      (1000 samples).
///   4. kSampled.
/// kStratified is never auto-selected: its variance win depends on the
/// entropy concentration of the pivot edges, which the policy cannot
/// cheaply certify, and its random stream differs from plain sampling --
/// callers opt in per request.
[[nodiscard]] Result<Estimator> SelectEstimator(
    const UncertainGraph& graph, const QueryRequest& request,
    const std::vector<Estimator>& supported);

}  // namespace ugs

#endif  // UGS_QUERY_ESTIMATOR_POLICY_H_
