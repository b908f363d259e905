#ifndef UGS_QUERY_QUERY_H_
#define UGS_QUERY_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/knn.h"
#include "query/most_probable_path.h"
#include "query/pagerank.h"
#include "query/sample_engine.h"
#include "query/shortest_path.h"
#include "query/world_sampler.h"
#include "util/status.h"

namespace ugs {

/// The unified query API. The paper evaluates sparsifiers by how well a
/// fixed set of interchangeable workloads (reliability, shortest-path
/// distance, PageRank, clustering coefficient; Section 6.3) is preserved
/// on G' versus G. This layer makes those workloads first-class values:
/// a query is addressed by registry name, configured through one typed
/// QueryRequest, executed under a policy-selected estimator, and answered
/// with one typed QueryResult -- the same shape the sparsify layer
/// already has (Sparsifier + MakeSparsifierByName).
///
/// Most callers should not touch Query directly: GraphSession
/// (query/graph_session.h) owns the loaded graph and the sampling
/// engines, and routes each request through this registry.

/// How a request is executed. kAuto defers to the selection policy
/// (query/estimator_policy.h); everything else forces a strategy, which
/// fails with InvalidArgument / FailedPrecondition when the query or the
/// graph cannot honor it.
enum class Estimator {
  kAuto = 0,
  kSampled,        ///< Plain Monte-Carlo possible worlds (SampleEngine).
  kSkipSampler,    ///< Monte-Carlo with the lane-parallel block sampler
                   ///< (query/block_sampler.h: 16 worlds per pass over
                   ///< the edges); same distribution, different random
                   ///< stream. Named for the geometric-skip sampler it
                   ///< replaced; wire byte 2 and the name "skip" stay.
  kStratified,     ///< Recursive stratified sampling over high-entropy
                   ///< pivot edges (Li et al., ICDE 2014).
  kExact,          ///< Full 2^|E| world enumeration (Equation 1); only
                   ///< feasible up to kMaxExactEdges edges.
  kDeterministic,  ///< No possible-world expectation at all (kNN,
                   ///< most-probable path run on G itself).
};

/// Lower-case display name ("auto", "sampled", "skip", "stratified",
/// "exact", "deterministic").
const char* EstimatorName(Estimator estimator);

/// Inverse of EstimatorName; NotFound on unknown names.
[[nodiscard]] Result<Estimator> ParseEstimator(const std::string& name);

/// One query invocation, fully specified. Which fields matter depends on
/// the query kind: pair queries (reliability, shortest-path,
/// most-probable-path) read `pairs`; source queries (knn) read `sources`
/// and `k`; sampled estimators read `num_samples` and `seed`.
struct QueryRequest {
  std::string query;  ///< Registry name; see KnownQueryNames().

  std::vector<VertexPair> pairs;
  std::vector<VertexId> sources;
  std::size_t k = 10;  ///< Neighborhood size for knn.

  int num_samples = 512;
  /// Seed of the request's private RNG. A request's result is a pure
  /// function of (graph, request), so identical requests agree
  /// bit-for-bit no matter the thread count, engine batch size, or
  /// concurrent requests -- the engine's seed-split contract lifted to
  /// requests.
  std::uint64_t seed = 1;

  Estimator estimator = Estimator::kAuto;

  PageRankOptions pagerank;    ///< pagerank only.
  /// stratified only: 2^min(r, |E|) strata. Validate refuses r outside
  /// [0, 62] and more strata than num_samples.
  int num_pivot_edges = 8;
};

/// Typed response. `estimator` records what actually ran (never kAuto).
/// Sampled executions carry the full McSamples matrix for distribution
/// metrics; every unit-valued query also fills `means` (one point
/// estimate per pair / vertex, in request order) so callers that only
/// want point estimates never touch the matrix.
struct QueryResult {
  std::string query;
  Estimator estimator = Estimator::kSampled;

  McSamples samples;          ///< Sampled estimators only.
  std::vector<double> means;  ///< Per-unit point estimates.

  bool has_scalar = false;
  double scalar = 0.0;  ///< Scalar queries (connectivity).

  std::vector<std::vector<KnnResult>> knn;  ///< knn: one list per source.
  std::vector<MostProbablePath> paths;      ///< mpp: one path per pair.

  /// Version of the graph this result ran against (filled by
  /// GraphSession). Freshly loaded graphs are version 1; every applied
  /// update batch bumps it by one (docs/dynamic-graphs.md).
  std::uint64_t graph_version = 1;

  double seconds = 0.0;  ///< Wall time (filled by GraphSession).
};

/// A registered query kind. Implementations are thin adapters over the
/// per-query compute kernels (McReliability, McPageRank, ...), so a
/// request executed here is bit-identical to calling the kernel directly
/// with an Rng seeded from request.seed.
class Query {
 public:
  virtual ~Query() = default;

  /// Canonical registry name.
  virtual std::string name() const = 0;

  /// The estimators this query can execute (excluding kAuto). The
  /// selection policy picks among these.
  virtual std::vector<Estimator> SupportedEstimators() const = 0;

  /// Checks request fields against this query and the graph (endpoint
  /// ranges, required fields, positive sample counts). OK means Run will
  /// not abort on malformed input.
  virtual Status Validate(const UncertainGraph& graph,
                          const QueryRequest& request) const = 0;

  /// Executes under an already-resolved estimator (never kAuto). For
  /// kSkipSampler the caller must pass an engine built with
  /// use_skip_sampler = true (the block sampler); GraphSession does.
  /// Assumes Validate passed.
  virtual Result<QueryResult> Run(const UncertainGraph& graph,
                                  const QueryRequest& request,
                                  Estimator estimator,
                                  const SampleEngine& engine) const = 0;
};

/// The canonical registry name of `name`: the aliases "cc"
/// (clustering), "sp" (shortest-path), and "mpp" (most-probable-path)
/// resolve; every other name comes back unchanged.
std::string CanonicalQueryName(const std::string& name);

/// Builds a query by registry name. Canonical names are listed by
/// KnownQueryNames(); the aliases of CanonicalQueryName are also
/// understood. Returns NotFound for unknown names.
[[nodiscard]] Result<std::unique_ptr<Query>> MakeQueryByName(
    const std::string& name);

/// All canonical names understood by MakeQueryByName.
std::vector<std::string> KnownQueryNames();

}  // namespace ugs

#endif  // UGS_QUERY_QUERY_H_
