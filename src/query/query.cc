#include "query/query.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "query/clustering.h"
#include "query/estimator_policy.h"
#include "query/exact.h"
#include "query/reliability.h"
#include "query/stratified.h"

namespace ugs {

const char* EstimatorName(Estimator estimator) {
  switch (estimator) {
    case Estimator::kAuto:
      return "auto";
    case Estimator::kSampled:
      return "sampled";
    case Estimator::kSkipSampler:
      return "skip";
    case Estimator::kStratified:
      return "stratified";
    case Estimator::kExact:
      return "exact";
    case Estimator::kDeterministic:
      return "deterministic";
  }
  return "unknown";
}

Result<Estimator> ParseEstimator(const std::string& name) {
  if (name == "auto") return Estimator::kAuto;
  if (name == "sampled") return Estimator::kSampled;
  if (name == "skip") return Estimator::kSkipSampler;
  if (name == "stratified") return Estimator::kStratified;
  if (name == "exact") return Estimator::kExact;
  if (name == "deterministic") return Estimator::kDeterministic;
  return Status::NotFound("unknown estimator '" + name + "'");
}

namespace {

Status ValidatePairs(const std::string& query, const UncertainGraph& graph,
                     const std::vector<VertexPair>& pairs) {
  if (pairs.empty()) {
    return Status::InvalidArgument("query '" + query +
                                   "' needs at least one vertex pair");
  }
  const std::size_t n = graph.num_vertices();
  for (const VertexPair& pair : pairs) {
    if (pair.s >= n || pair.t >= n) {
      return Status::InvalidArgument(
          "pair (" + std::to_string(pair.s) + ", " + std::to_string(pair.t) +
          ") out of range for " + std::to_string(n) + " vertices");
    }
  }
  return Status::OK();
}

Status ValidateSamples(const UncertainGraph& graph,
                       const QueryRequest& request) {
  if (request.num_samples <= 0) {
    return Status::InvalidArgument("num_samples must be positive, got " +
                                   std::to_string(request.num_samples));
  }
  if (request.estimator != Estimator::kStratified) return Status::OK();
  if (request.num_pivot_edges < 0 || request.num_pivot_edges > 62) {
    return Status::InvalidArgument("num_pivot_edges must be in [0, 62], got " +
                                   std::to_string(request.num_pivot_edges));
  }
  // StratifiedEstimate draws at least one world in each of its
  // 2^min(r, |E|) strata, so only a budget that covers every stratum
  // bounds its work by num_samples.
  const std::size_t strata_bits = std::min<std::size_t>(
      static_cast<std::size_t>(request.num_pivot_edges), graph.num_edges());
  if ((std::uint64_t{1} << strata_bits) >
      static_cast<std::uint64_t>(request.num_samples)) {
    return Status::InvalidArgument(
        "stratified estimation visits 2^" + std::to_string(strata_bits) +
        " strata, more than num_samples = " +
        std::to_string(request.num_samples));
  }
  return Status::OK();
}

/// PageRank's options come off the wire as raw f64/i32. Every term the
/// kernel sums must be >= +0, which damping in [0, 1] guarantees.
Status ValidatePageRankOptions(const PageRankOptions& options) {
  if (!(options.damping >= 0.0 && options.damping <= 1.0)) {
    return Status::InvalidArgument("pagerank damping must be in [0, 1], got " +
                                   std::to_string(options.damping));
  }
  if (!(options.tolerance >= 0.0)) {
    return Status::InvalidArgument(
        "pagerank tolerance must be non-negative, got " +
        std::to_string(options.tolerance));
  }
  if (options.max_iterations < 0) {
    return Status::InvalidArgument(
        "pagerank max_iterations must be non-negative, got " +
        std::to_string(options.max_iterations));
  }
  return Status::OK();
}

/// Stratification budget of a request.
StratifiedOptions StratifiedOptionsOf(const QueryRequest& request) {
  StratifiedOptions options;
  options.num_pivot_edges = request.num_pivot_edges;
  options.total_samples = request.num_samples;
  return options;
}

/// WorldQueryFactory for the s ~ t reachability indicator.
WorldQueryFactory ReachabilityFactory(const UncertainGraph& graph, VertexId s,
                                      VertexId t) {
  return [&graph, s, t]() -> WorldQuery {
    auto uf = std::make_shared<UnionFind>(graph.num_vertices());
    return [uf, s, t](const PossibleWorld& world) {
      ConnectOnWorld(world, uf.get());
      return uf->Connected(s, t) ? 1.0 : 0.0;
    };
  };
}

/// WorldQueryFactory for d(s, t) * 1[s ~ t] (distance = true) or the bare
/// connectivity indicator (distance = false) -- the two halves of the
/// stratified conditioned-distance ratio estimator.
WorldQueryFactory DistanceFactory(VertexId s, VertexId t, bool distance) {
  return [s, t, distance]() -> WorldQuery {
    auto scratch = std::make_shared<PairSearchScratch>();
    return [scratch, s, t, distance](const PossibleWorld& world) {
      const int d = ShortestDistanceOnWorld(world, s, t, scratch.get());
      if (d == kUnreachable) return 0.0;
      return distance ? static_cast<double>(d) : 1.0;
    };
  };
}

class ReliabilityQuery final : public Query {
 public:
  std::string name() const override { return "reliability"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler,
            Estimator::kStratified, Estimator::kExact};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    UGS_RETURN_IF_ERROR(ValidatePairs(name(), graph, request.pairs));
    return ValidateSamples(graph, request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    Rng rng(request.seed);
    switch (estimator) {
      case Estimator::kSampled:
      case Estimator::kSkipSampler:
        result.samples = McReliability(graph, request.pairs,
                                       request.num_samples, &rng, engine);
        result.means = result.samples.UnitMeans();
        break;
      case Estimator::kStratified: {
        const StratifiedOptions options = StratifiedOptionsOf(request);
        result.means.reserve(request.pairs.size());
        for (const VertexPair& pair : request.pairs) {
          result.means.push_back(StratifiedEstimate(
              graph, ReachabilityFactory(graph, pair.s, pair.t), options,
              &rng, engine));
        }
        break;
      }
      case Estimator::kExact:
        result.means.reserve(request.pairs.size());
        // Enumeration chunks on the session's engine pool, so a session
        // with a dedicated pool isolates exact work too.
        for (const VertexPair& pair : request.pairs) {
          result.means.push_back(
              ExactReliability(graph, pair.s, pair.t, engine.pool()));
        }
        break;
      default:
        return Status::Internal("reliability: unreachable estimator");
    }
    return result;
  }
};

class ConnectivityQuery final : public Query {
 public:
  std::string name() const override { return "connectivity"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler,
            Estimator::kStratified, Estimator::kExact};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    return ValidateSamples(graph, request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    result.has_scalar = true;
    Rng rng(request.seed);
    switch (estimator) {
      case Estimator::kSampled:
      case Estimator::kSkipSampler:
        result.scalar =
            EstimateConnectivity(graph, request.num_samples, &rng, engine);
        break;
      case Estimator::kStratified: {
        auto factory = [&graph]() -> WorldQuery {
          auto uf = std::make_shared<UnionFind>(graph.num_vertices());
          return [uf](const PossibleWorld& world) {
            ConnectOnWorld(world, uf.get());
            return uf->num_components() == 1 ? 1.0 : 0.0;
          };
        };
        result.scalar = StratifiedEstimate(
            graph, factory, StratifiedOptionsOf(request), &rng, engine);
        break;
      }
      case Estimator::kExact:
        result.scalar = ExactConnectivityProbability(graph, engine.pool());
        break;
      default:
        return Status::Internal("connectivity: unreachable estimator");
    }
    return result;
  }
};

class ShortestPathQuery final : public Query {
 public:
  std::string name() const override { return "shortest-path"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler,
            Estimator::kStratified, Estimator::kExact};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    UGS_RETURN_IF_ERROR(ValidatePairs(name(), graph, request.pairs));
    return ValidateSamples(graph, request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    Rng rng(request.seed);
    switch (estimator) {
      case Estimator::kSampled:
      case Estimator::kSkipSampler:
        result.samples = McShortestPath(graph, request.pairs,
                                        request.num_samples, &rng, engine);
        result.means = result.samples.UnitMeans();
        break;
      case Estimator::kStratified: {
        // Conditioned mean as a ratio of stratified estimates:
        // E[d | s ~ t] = E[d * 1(s ~ t)] / Pr[s ~ t].
        const StratifiedOptions options = StratifiedOptionsOf(request);
        result.means.reserve(request.pairs.size());
        for (const VertexPair& pair : request.pairs) {
          double weighted = StratifiedEstimate(
              graph, DistanceFactory(pair.s, pair.t, true), options, &rng,
              engine);
          double connected = StratifiedEstimate(
              graph, DistanceFactory(pair.s, pair.t, false), options, &rng,
              engine);
          result.means.push_back(connected > 0.0 ? weighted / connected
                                                 : 0.0);
        }
        break;
      }
      case Estimator::kExact:
        result.means.reserve(request.pairs.size());
        for (const VertexPair& pair : request.pairs) {
          result.means.push_back(ExactExpectedDistance(
              graph, pair.s, pair.t, nullptr, engine.pool()));
        }
        break;
      default:
        return Status::Internal("shortest-path: unreachable estimator");
    }
    return result;
  }
};

class PageRankQuery final : public Query {
 public:
  std::string name() const override { return "pagerank"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    if (graph.num_vertices() == 0) {
      return Status::InvalidArgument("pagerank needs a non-empty graph");
    }
    UGS_RETURN_IF_ERROR(ValidatePageRankOptions(request.pagerank));
    return ValidateSamples(graph, request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    Rng rng(request.seed);
    result.samples = McPageRank(graph, request.num_samples, &rng,
                                request.pagerank, engine);
    result.means = result.samples.UnitMeans();
    return result;
  }
};

class ClusteringQuery final : public Query {
 public:
  std::string name() const override { return "clustering"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kSampled, Estimator::kSkipSampler};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    return ValidateSamples(graph, request);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    Rng rng(request.seed);
    result.samples =
        McClusteringCoefficient(graph, request.num_samples, &rng, engine);
    result.means = result.samples.UnitMeans();
    return result;
  }
};

class KnnQuery final : public Query {
 public:
  std::string name() const override { return "knn"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kDeterministic};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    if (request.sources.empty()) {
      return Status::InvalidArgument("knn needs at least one source vertex");
    }
    for (VertexId s : request.sources) {
      if (s >= graph.num_vertices()) {
        return Status::InvalidArgument(
            "source " + std::to_string(s) + " out of range for " +
            std::to_string(graph.num_vertices()) + " vertices");
      }
    }
    if (request.k == 0) {
      return Status::InvalidArgument("knn needs k > 0");
    }
    return Status::OK();
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    result.knn.resize(request.sources.size());
    // Sources are independent Dijkstra runs writing disjoint slots, so
    // the session's pool parallelizes them without affecting results.
    engine.pool().ParallelFor(request.sources.size(), [&](std::size_t i) {
      result.knn[i] = MostProbableKnn(graph, request.sources[i], request.k);
    });
    return result;
  }
};

class MostProbablePathQuery final : public Query {
 public:
  std::string name() const override { return "most-probable-path"; }

  std::vector<Estimator> SupportedEstimators() const override {
    return {Estimator::kDeterministic};
  }

  Status Validate(const UncertainGraph& graph,
                  const QueryRequest& request) const override {
    return ValidatePairs(name(), graph, request.pairs);
  }

  Result<QueryResult> Run(const UncertainGraph& graph,
                          const QueryRequest& request, Estimator,
                          const SampleEngine& engine) const override {
    QueryResult result;
    result.paths.resize(request.pairs.size());
    engine.pool().ParallelFor(request.pairs.size(), [&](std::size_t i) {
      result.paths[i] = FindMostProbablePath(graph, request.pairs[i].s,
                                             request.pairs[i].t);
    });
    result.means.reserve(result.paths.size());
    for (const MostProbablePath& path : result.paths) {
      result.means.push_back(path.probability);
    }
    return result;
  }
};

}  // namespace

std::string CanonicalQueryName(const std::string& name) {
  // Short aliases matching the paper's figure labels and the legacy
  // ugs_query spellings.
  if (name == "cc") return "clustering";
  if (name == "sp") return "shortest-path";
  if (name == "mpp") return "most-probable-path";
  return name;
}

Result<std::unique_ptr<Query>> MakeQueryByName(const std::string& name) {
  if (name == "reliability") return {std::make_unique<ReliabilityQuery>()};
  if (name == "connectivity") return {std::make_unique<ConnectivityQuery>()};
  if (name == "shortest-path") {
    return {std::make_unique<ShortestPathQuery>()};
  }
  if (name == "pagerank") return {std::make_unique<PageRankQuery>()};
  if (name == "clustering") return {std::make_unique<ClusteringQuery>()};
  if (name == "knn") return {std::make_unique<KnnQuery>()};
  if (name == "most-probable-path") {
    return {std::make_unique<MostProbablePathQuery>()};
  }
  const std::string canonical = CanonicalQueryName(name);
  if (canonical != name) return MakeQueryByName(canonical);
  return Status::NotFound("unknown query '" + name + "'");
}

std::vector<std::string> KnownQueryNames() {
  return {"reliability", "connectivity", "shortest-path",      "pagerank",
          "clustering",  "knn",          "most-probable-path"};
}

}  // namespace ugs
