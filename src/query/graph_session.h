#ifndef UGS_QUERY_GRAPH_SESSION_H_
#define UGS_QUERY_GRAPH_SESSION_H_

#include <memory>
#include <string>
#include <span>

#include "graph/uncertain_graph.h"
#include "query/query.h"
#include "query/sample_engine.h"
#include "util/status.h"

namespace ugs {

/// Configuration of a GraphSession.
struct GraphSessionOptions {
  /// Engine configuration shared by the session's plain and block-sampler
  /// engines, which run on one pool of engine.num_threads threads (<= 0 =
  /// hardware concurrency). Successor sessions (WithUpdates) reuse it.
  SampleEngineOptions engine;
  /// Version of the graph this session serves. Freshly loaded graphs
  /// are version 1; WithUpdates builds each successor session with the
  /// bumped version. Stamped into every result (QueryResult
  /// .graph_version) so callers can tell which snapshot answered.
  std::uint64_t graph_version = 1;
};

/// The serving facade of the query layer: owns one loaded UncertainGraph
/// together with the per-graph state every request needs (a plain and a
/// block-sampler SampleEngine sharing one pool), and
/// executes QueryRequests through the query registry under the
/// estimator-selection policy.
///
///   auto session = ugs::GraphSession::Open("graph.txt");
///   ugs::QueryRequest request{.query = "reliability"};
///   request.pairs = {{0, 5}};
///   auto result = (*session)->Run(request);
///
/// Determinism: a request's result is a pure function of (graph,
/// request) -- the request's seed feeds the engine's seed-split contract,
/// so results are bit-identical at any thread count and identical to
/// calling the query's kernel with Rng(request.seed) on any engine. Run
/// is const and thread-safe, so concurrent calls never change any result.
class GraphSession {
 public:
  explicit GraphSession(UncertainGraph graph, GraphSessionOptions options = {});

  /// Loads a graph file into a fresh session. Paths ending in ".ugsc"
  /// (graph/csr_format.h) are mmap'ed -- open is header validation plus a
  /// checksum pass, and the session's graph is a zero-copy view over the
  /// mapping; everything else is parsed as a text edge list.
  [[nodiscard]] static Result<std::unique_ptr<GraphSession>> Open(
      const std::string& path, GraphSessionOptions options = {});

  const UncertainGraph& graph() const { return graph_; }

  /// The session's plain sampling engine (kSkipSampler requests are
  /// routed to a twin engine with use_skip_sampler set, which draws
  /// worlds with the block sampler).
  const SampleEngine& engine() const { return engine_; }

  const GraphSessionOptions& options() const { return options_; }

  /// Version of the graph this session serves (stamped into results).
  std::uint64_t version() const { return options_.graph_version; }

  /// Builds the successor session: this session's graph with `updates`
  /// applied (atomically -- see UncertainGraph::WithUpdates) and the
  /// version set to `new_version`. This session is untouched either
  /// way; sessions stay immutable, updates swap whole sessions (the
  /// registry's copy-on-mutate path). The successor shares this
  /// session's pool, so applying updates spawns no threads. The
  /// successor's graph is heap-built even when this one is a view
  /// (mmap): the first write leaves the mapping, not the first read.
  [[nodiscard]] Result<std::unique_ptr<GraphSession>> WithUpdates(
      std::span<const EdgeUpdate> updates, std::uint64_t new_version) const;

  /// Executes one request: registry lookup, validation, estimator
  /// selection, then the query itself. The result records the estimator
  /// that ran and the wall time spent.
  [[nodiscard]] Result<QueryResult> Run(const QueryRequest& request) const;

 private:
  GraphSession(UncertainGraph graph, GraphSessionOptions options,
               std::shared_ptr<ThreadPool> pool);

  UncertainGraph graph_;
  GraphSessionOptions options_;
  SampleEngine engine_;
  SampleEngine skip_engine_;  // use_skip_sampler: the block sampler.
};

}  // namespace ugs

#endif  // UGS_QUERY_GRAPH_SESSION_H_
