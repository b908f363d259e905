#include "query/estimator_policy.h"

#include <algorithm>
#include <string>

#include "query/exact.h"

namespace ugs {
namespace {

bool Supports(const std::vector<Estimator>& supported, Estimator e) {
  return std::find(supported.begin(), supported.end(), e) != supported.end();
}

bool ExactIsFeasible(const UncertainGraph& graph) {
  return graph.num_edges() <= kMaxExactEdges;
}

/// Enumeration visits 2^|E| worlds -- once per pair for pair queries,
/// since the exact oracles answer one (s, t) at a time, whereas one
/// sampled world serves every pair. It beats sampling when the full
/// enumeration cost is within the request's world budget.
bool ExactIsCheaperThanSampling(const UncertainGraph& graph,
                                const QueryRequest& request) {
  if (request.num_samples <= 0) return false;
  const std::size_t m = graph.num_edges();
  if (m >= 63) return false;  // 1 << m would overflow (or be UB) below.
  const std::uint64_t per_pair_runs =
      std::max<std::uint64_t>(request.pairs.size(), 1);
  const std::uint64_t worlds = std::uint64_t{1} << m;
  // Want worlds * per_pair_runs <= num_samples, but the product can wrap
  // uint64 (m near 62, or a request with a huge pairs list) and a wrapped
  // product would flip the policy to exact on the most expensive inputs.
  // Division is wrap-free and equivalent over the integers.
  return worlds <=
         static_cast<std::uint64_t>(request.num_samples) / per_pair_runs;
}

}  // namespace

Result<Estimator> SelectEstimator(const UncertainGraph& graph,
                                  const QueryRequest& request,
                                  const std::vector<Estimator>& supported) {
  const Estimator requested = request.estimator;
  if (requested != Estimator::kAuto) {
    if (!Supports(supported, requested)) {
      return Status::InvalidArgument(
          "estimator '" + std::string(EstimatorName(requested)) +
          "' is not supported by query '" + request.query + "'");
    }
    if (requested == Estimator::kExact && !ExactIsFeasible(graph)) {
      return Status::FailedPrecondition(
          "exact enumeration needs at most " +
          std::to_string(kMaxExactEdges) + " edges; graph has " +
          std::to_string(graph.num_edges()));
    }
    return requested;
  }

  if (Supports(supported, Estimator::kDeterministic)) {
    return Estimator::kDeterministic;
  }
  if (Supports(supported, Estimator::kExact) && ExactIsFeasible(graph) &&
      ExactIsCheaperThanSampling(graph, request)) {
    return Estimator::kExact;
  }
  if (Supports(supported, Estimator::kSkipSampler) && graph.num_edges() > 0 &&
      request.num_samples >= kBlockSamplerMinSamples) {
    return Estimator::kSkipSampler;
  }
  if (Supports(supported, Estimator::kSampled)) return Estimator::kSampled;
  return Status::Internal("query '" + request.query +
                          "' supports no applicable estimator");
}

}  // namespace ugs
