#include "query/graph_session.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "graph/csr_format.h"
#include "graph/graph_io.h"
#include "query/estimator_policy.h"
#include "util/timer.h"

namespace ugs {
namespace {

SampleEngineOptions WithSkipSampler(SampleEngineOptions options, bool skip) {
  options.use_skip_sampler = skip;
  return options;
}

}  // namespace

GraphSession::GraphSession(UncertainGraph graph, GraphSessionOptions options)
    : GraphSession(std::move(graph), options,
                   std::make_shared<ThreadPool>(options.engine.num_threads)) {}

GraphSession::GraphSession(UncertainGraph graph, GraphSessionOptions options,
                           std::shared_ptr<ThreadPool> pool)
    : graph_(std::move(graph)),
      options_(options),
      engine_(WithSkipSampler(options.engine, false), pool),
      skip_engine_(WithSkipSampler(options.engine, true), std::move(pool)) {}

Result<std::unique_ptr<GraphSession>> GraphSession::Open(
    const std::string& path, GraphSessionOptions options) {
  // Binary CSR files are mmap'ed (open = validation, not a parse); the
  // session's graph is then a view pinning the mapping. Everything else
  // goes through the text edge-list parser.
  if (path.ends_with(kCsrExtension)) {
    Result<MappedGraph> mapped = MappedGraph::Open(path);
    if (!mapped.ok()) return mapped.status();
    return std::make_unique<GraphSession>(std::move(*mapped).TakeGraph(),
                                          options);
  }
  Result<UncertainGraph> graph = LoadEdgeList(path);
  if (!graph.ok()) return graph.status();
  return std::make_unique<GraphSession>(std::move(graph.value()), options);
}

Result<QueryResult> GraphSession::Run(const QueryRequest& request) const {
  Result<std::unique_ptr<Query>> query = MakeQueryByName(request.query);
  if (!query.ok()) return query.status();
  UGS_RETURN_IF_ERROR((*query)->Validate(graph_, request));
  Result<Estimator> estimator =
      SelectEstimator(graph_, request, (*query)->SupportedEstimators());
  if (!estimator.ok()) return estimator.status();
  const SampleEngine& engine =
      *estimator == Estimator::kSkipSampler ? skip_engine_ : engine_;
  Timer timer;
  Result<QueryResult> result =
      (*query)->Run(graph_, request, *estimator, engine);
  if (!result.ok()) return result;
  result->query = (*query)->name();
  result->estimator = *estimator;
  result->graph_version = options_.graph_version;
  result->seconds = timer.ElapsedSeconds();
  return result;
}

Result<std::unique_ptr<GraphSession>> GraphSession::WithUpdates(
    std::span<const EdgeUpdate> updates, std::uint64_t new_version) const {
  Result<UncertainGraph> mutated = graph_.WithUpdates(updates);
  if (!mutated.ok()) return mutated.status();
  GraphSessionOptions options = options_;
  options.graph_version = new_version;
  return std::unique_ptr<GraphSession>(new GraphSession(
      std::move(mutated).value(), options, engine_.shared_pool()));
}

std::vector<Result<QueryResult>> GraphSession::RunBatch(
    const std::vector<QueryRequest>& requests) const {
  const int workers =
      static_cast<int>(std::min<std::size_t>(
          requests.size(),
          static_cast<std::size_t>(std::max(options_.batch_workers, 1))));
  if (workers <= 1) {
    std::vector<Result<QueryResult>> results;
    results.reserve(requests.size());
    // Requests are issued in order; each one's worlds fan out across the
    // engine's pool. Results are position-stable and independent of any
    // scheduling (see the determinism note in the class comment).
    for (const QueryRequest& request : requests) {
      results.push_back(Run(request));
    }
    return results;
  }
  // Request-level overlap on the engine's executor: one task group of
  // `workers` driver tasks, each claiming request indices from a shared
  // counter and writing disjoint result slots -- no per-call thread
  // churn. Each request's own sampling loop is a nested task group on
  // the same executor, so overlapping requests interleave their sample
  // batches instead of serializing. Run is const and thread-safe, and
  // each result is a pure function of (graph, request), so this is
  // bit-identical to the sequential path.
  std::vector<Result<QueryResult>> results(
      requests.size(), Status::Internal("batch slot never ran"));
  std::atomic<std::size_t> next{0};
  engine_.pool().ParallelFor(
      static_cast<std::size_t>(workers), [&](std::size_t) {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= requests.size()) break;
          results[i] = Run(requests[i]);
        }
      });
  return results;
}

}  // namespace ugs
