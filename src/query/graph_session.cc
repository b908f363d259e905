#include "query/graph_session.h"

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

}  // namespace ugs
