#include "query/query.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/clustering.h"
#include "query/estimator_policy.h"
#include "query/exact.h"
#include "query/graph_session.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/shortest_path.h"
#include "query/stratified.h"
#include "tests/test_util.h"
#include "util/union_find.h"

namespace ugs {
namespace {

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

TEST(QueryRegistryTest, KnownNamesRoundTrip) {
  std::vector<std::string> names = KnownQueryNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names) {
    Result<std::unique_ptr<Query>> query = MakeQueryByName(name);
    ASSERT_TRUE(query.ok()) << name;
    EXPECT_EQ((*query)->name(), name);
    EXPECT_FALSE((*query)->SupportedEstimators().empty()) << name;
  }
}

TEST(QueryRegistryTest, UnknownNameIsNotFound) {
  Result<std::unique_ptr<Query>> query = MakeQueryByName("frobnicate");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kNotFound);
}

TEST(QueryRegistryTest, AliasesResolveToCanonicalNames) {
  EXPECT_EQ((*MakeQueryByName("cc"))->name(), "clustering");
  EXPECT_EQ((*MakeQueryByName("sp"))->name(), "shortest-path");
  EXPECT_EQ((*MakeQueryByName("mpp"))->name(), "most-probable-path");
}

TEST(QueryRegistryTest, CanonicalQueryNameResolvesOnlyAliases) {
  EXPECT_EQ(CanonicalQueryName("cc"), "clustering");
  EXPECT_EQ(CanonicalQueryName("sp"), "shortest-path");
  EXPECT_EQ(CanonicalQueryName("mpp"), "most-probable-path");
  for (const std::string& name : KnownQueryNames()) {
    EXPECT_EQ(CanonicalQueryName(name), name);
  }
  EXPECT_EQ(CanonicalQueryName("frobnicate"), "frobnicate");
}

TEST(QueryRegistryTest, EstimatorNamesRoundTrip) {
  for (Estimator e :
       {Estimator::kAuto, Estimator::kSampled, Estimator::kSkipSampler,
        Estimator::kStratified, Estimator::kExact,
        Estimator::kDeterministic}) {
    Result<Estimator> parsed = ParseEstimator(EstimatorName(e));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, e);
  }
  EXPECT_EQ(ParseEstimator("bogus").status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Estimator-selection policy.
// ---------------------------------------------------------------------

TEST(EstimatorPolicyTest, ExplicitUnsupportedEstimatorIsInvalid) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  QueryRequest request;
  request.query = "pagerank";
  request.estimator = Estimator::kExact;
  Result<Estimator> choice = SelectEstimator(
      g, request, {Estimator::kSampled, Estimator::kSkipSampler});
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kInvalidArgument);
}

TEST(EstimatorPolicyTest, ExplicitExactNeedsFeasibleEnumeration) {
  UncertainGraph g = testing_util::PathGraph(kMaxExactEdges + 5, 0.5);
  QueryRequest request;
  request.query = "connectivity";
  request.estimator = Estimator::kExact;
  Result<Estimator> choice =
      SelectEstimator(g, request, {Estimator::kSampled, Estimator::kExact});
  ASSERT_FALSE(choice.ok());
  EXPECT_EQ(choice.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EstimatorPolicyTest, AutoPrefersDeterministic) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  QueryRequest request;
  request.query = "knn";
  Result<Estimator> choice =
      SelectEstimator(g, request, {Estimator::kDeterministic});
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kDeterministic);
}

TEST(EstimatorPolicyTest, AutoPicksExactWhenEnumerationFitsBudget) {
  UncertainGraph g = testing_util::CompleteK4(0.5);  // 2^6 = 64 worlds.
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 100;
  std::vector<Estimator> supported{Estimator::kSampled, Estimator::kExact};
  Result<Estimator> choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kExact);

  request.num_samples = 50;  // Budget below 64 worlds: keep sampling.
  choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
}

TEST(EstimatorPolicyTest, AutoExactAccountsForPerPairEnumerationCost) {
  // The exact oracles enumerate 2^|E| worlds once per pair; a sampled
  // world serves every pair. With 3 pairs on K4 the exact cost is
  // 3 * 64 = 192 worlds, so a budget of 100 keeps sampling and a budget
  // of 192 flips to exact.
  UncertainGraph g = testing_util::CompleteK4(0.5);
  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 1}, {1, 2}, {2, 3}};
  std::vector<Estimator> supported{Estimator::kSampled, Estimator::kExact};
  request.num_samples = 100;
  Result<Estimator> choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
  request.num_samples = 192;
  choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kExact);
}

TEST(EstimatorPolicyTest, ExactBudgetBoundariesNearShiftWidth) {
  // m = 62/63/64 edges: 2^m stops fitting the budget math (1 << 63 and
  // 1 << 64 would be wraparound / UB). Selection must stay well-defined
  // at each boundary -- auto falls back to sampling even with the
  // largest possible budget, and an explicit exact request fails
  // feasibility with a typed error instead of misbehaving.
  std::vector<Estimator> supported{Estimator::kSampled, Estimator::kExact};
  for (std::size_t vertices : {63u, 64u, 65u}) {  // 62 / 63 / 64 edges.
    UncertainGraph g = testing_util::PathGraph(vertices, 0.5);
    QueryRequest request;
    request.query = "connectivity";
    request.num_samples = std::numeric_limits<int>::max();
    Result<Estimator> choice = SelectEstimator(g, request, supported);
    ASSERT_TRUE(choice.ok()) << g.num_edges() << " edges";
    EXPECT_EQ(*choice, Estimator::kSampled) << g.num_edges() << " edges";

    request.estimator = Estimator::kExact;
    choice = SelectEstimator(g, request, supported);
    ASSERT_FALSE(choice.ok()) << g.num_edges() << " edges";
    EXPECT_EQ(choice.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(EstimatorPolicyTest, HugePairCountsCannotWrapExactBudgetMath) {
  // The per-pair enumeration cost is worlds * pairs; as a raw uint64
  // multiply a large pairs list could wrap it small and flip the policy
  // to exact on precisely the most expensive requests. The division
  // form must keep the boundary exact at large pair counts.
  UncertainGraph g = testing_util::CompleteK4(0.5);  // 2^6 = 64 worlds.
  std::vector<Estimator> supported{Estimator::kSampled, Estimator::kExact};
  QueryRequest request;
  request.query = "reliability";
  request.pairs.assign(20000, VertexPair{0, 1});

  request.num_samples = 64 * 20000 - 1;  // One world short of the cost.
  Result<Estimator> choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);

  request.num_samples = 64 * 20000;  // Enumeration fits exactly.
  choice = SelectEstimator(g, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kExact);

  // At the feasibility ceiling (2^24 worlds) a thousand pairs dwarf the
  // maximum representable budget: sampling, even at INT_MAX samples.
  UncertainGraph wide = testing_util::PathGraph(kMaxExactEdges + 1, 0.5);
  request.pairs.assign(1000, VertexPair{0, 1});
  request.num_samples = std::numeric_limits<int>::max();
  choice = SelectEstimator(wide, request, supported);
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
}

TEST(EstimatorPolicyTest, AutoPicksTheBlockSamplerWhateverTheMeanP) {
  // Once a request fills a block, the block sampler beats plain sampling
  // at mean p ~0.16 and ~0.5 alike, so the graph's probabilities do not
  // enter the choice (a mean-p rule once kept graphs with mean p >= 0.25
  // off it).
  QueryRequest request;
  request.query = "reliability";
  request.num_samples = 100;
  std::vector<Estimator> supported{Estimator::kSampled,
                                   Estimator::kSkipSampler};
  for (double p : {0.1, 0.5, 0.8}) {
    Result<Estimator> choice =
        SelectEstimator(testing_util::PathGraph(40, p), request, supported);
    ASSERT_TRUE(choice.ok());
    EXPECT_EQ(*choice, Estimator::kSkipSampler) << "p " << p;
  }
}

TEST(EstimatorPolicyTest, AutoKeepsSmallRequestsOffTheBlockSampler) {
  // A block decides 16 worlds whatever the request needs: requests
  // smaller than a block draw the plain stream, at any mean p.
  QueryRequest request;
  request.query = "reliability";
  std::vector<Estimator> supported{Estimator::kSampled,
                                   Estimator::kSkipSampler};
  for (double p : {0.1, 0.5}) {
    UncertainGraph graph = testing_util::PathGraph(40, p);
    auto choice_at = [&](int samples) {
      request.num_samples = samples;
      Result<Estimator> choice = SelectEstimator(graph, request, supported);
      return choice.ok() ? *choice : Estimator::kAuto;
    };
    EXPECT_EQ(choice_at(1), Estimator::kSampled) << "p " << p;
    EXPECT_EQ(choice_at(8), Estimator::kSampled) << "p " << p;
    EXPECT_EQ(choice_at(15), Estimator::kSampled) << "p " << p;
    EXPECT_EQ(choice_at(16), Estimator::kSkipSampler) << "p " << p;
    EXPECT_EQ(choice_at(17), Estimator::kSkipSampler) << "p " << p;
  }
}

TEST(EstimatorPolicyTest, AutoNeverPicksStratified) {
  UncertainGraph g = testing_util::PathGraph(40, 0.5);
  QueryRequest request;
  request.query = "connectivity";
  Result<Estimator> choice = SelectEstimator(
      g, request, {Estimator::kSampled, Estimator::kStratified});
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(*choice, Estimator::kSampled);
}

// ---------------------------------------------------------------------
// Golden equivalence: GraphSession output is bit-identical to a direct
// call of the query's kernel on a 1-thread engine, at every thread count.
// ---------------------------------------------------------------------

constexpr int kThreadLadder[] = {1, 2, 8};
constexpr int kSamples = 64;
constexpr std::uint64_t kSeed = 77;

GraphSession SessionWithThreads(int threads) {
  GraphSessionOptions options;
  options.engine.num_threads = threads;
  return GraphSession(testing_util::CompleteK4(0.5), options);
}

std::vector<VertexPair> TestPairs() { return {{0, 3}, {1, 2}, {2, 0}}; }

/// The serial kernel call each session result is compared against.
SampleEngine ReferenceEngine() {
  return SampleEngine(SampleEngineOptions{.num_threads = 1});
}

QueryRequest BaseRequest(const std::string& query) {
  QueryRequest request;
  request.query = query;
  request.pairs = TestPairs();
  request.sources = {0, 2};
  request.k = 3;
  request.num_samples = kSamples;
  request.seed = kSeed;
  request.estimator = Estimator::kSampled;
  return request;
}

TEST(QueryGoldenTest, ReliabilityMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  McSamples legacy =
      McReliability(g, TestPairs(), kSamples, &rng, ReferenceEngine());
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("reliability"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, ShortestPathMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  McSamples legacy =
      McShortestPath(g, TestPairs(), kSamples, &rng, ReferenceEngine());
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("shortest-path"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, PageRankMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  McSamples legacy = McPageRank(g, kSamples, &rng, {}, ReferenceEngine());
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("pagerank"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, ClusteringMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  McSamples legacy =
      McClusteringCoefficient(g, kSamples, &rng, ReferenceEngine());
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("clustering"));
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, ConnectivityMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(kSeed);
  double legacy = EstimateConnectivity(g, kSamples, &rng, ReferenceEngine());
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    Result<QueryResult> result = session.Run(BaseRequest("connectivity"));
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->has_scalar);
    EXPECT_EQ(result->scalar, legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, SkipSamplerMatchesLegacySkipEngine) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  SampleEngine skip_engine(SampleEngineOptions{.use_skip_sampler = true});
  Rng rng(kSeed);
  McSamples legacy = McReliability(g, TestPairs(), kSamples, &rng,
                                   skip_engine);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    QueryRequest request = BaseRequest("reliability");
    request.estimator = Estimator::kSkipSampler;
    Result<QueryResult> result = session.Run(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->estimator, Estimator::kSkipSampler);
    EXPECT_TRUE(result->samples == legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, StratifiedConnectivityMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  auto factory = [&g]() -> WorldQuery {
    auto uf = std::make_shared<UnionFind>(g.num_vertices());
    return [uf](const PossibleWorld& world) {
      ConnectOnWorld(world, uf.get());
      return uf->num_components() == 1 ? 1.0 : 0.0;
    };
  };
  StratifiedOptions options;
  options.num_pivot_edges = 4;
  options.total_samples = kSamples;
  Rng rng(kSeed);
  double legacy =
      StratifiedEstimate(g, factory, options, &rng, ReferenceEngine());
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    QueryRequest request = BaseRequest("connectivity");
    request.estimator = Estimator::kStratified;
    request.num_pivot_edges = 4;
    Result<QueryResult> result = session.Run(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->estimator, Estimator::kStratified);
    EXPECT_EQ(result->scalar, legacy) << threads << " threads";
  }
}

TEST(QueryGoldenTest, ExactEstimatorsMatchOracles) {
  UncertainGraph g = testing_util::CompleteK4(0.3);
  GraphSession session(testing_util::CompleteK4(0.3));

  QueryRequest connectivity = BaseRequest("connectivity");
  connectivity.estimator = Estimator::kExact;
  Result<QueryResult> conn = session.Run(connectivity);
  ASSERT_TRUE(conn.ok());
  ThreadPool pool(1);
  EXPECT_EQ(conn->scalar, ExactConnectivityProbability(g, pool));

  QueryRequest reliability = BaseRequest("reliability");
  reliability.estimator = Estimator::kExact;
  Result<QueryResult> rel = session.Run(reliability);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->means.size(), TestPairs().size());
  for (std::size_t i = 0; i < TestPairs().size(); ++i) {
    EXPECT_EQ(rel->means[i],
              ExactReliability(g, TestPairs()[i].s, TestPairs()[i].t, pool));
  }

  QueryRequest distance = BaseRequest("shortest-path");
  distance.estimator = Estimator::kExact;
  Result<QueryResult> dist = session.Run(distance);
  ASSERT_TRUE(dist.ok());
  for (std::size_t i = 0; i < TestPairs().size(); ++i) {
    EXPECT_EQ(dist->means[i],
              ExactExpectedDistance(g, TestPairs()[i].s, TestPairs()[i].t,
                                    nullptr, pool));
  }
}

TEST(QueryGoldenTest, KnnMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    QueryRequest request = BaseRequest("knn");
    request.estimator = Estimator::kAuto;
    Result<QueryResult> result = session.Run(request);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->estimator, Estimator::kDeterministic);
    ASSERT_EQ(result->knn.size(), request.sources.size());
    for (std::size_t i = 0; i < request.sources.size(); ++i) {
      std::vector<KnnResult> legacy =
          MostProbableKnn(g, request.sources[i], request.k);
      ASSERT_EQ(result->knn[i].size(), legacy.size());
      for (std::size_t j = 0; j < legacy.size(); ++j) {
        EXPECT_EQ(result->knn[i][j].vertex, legacy[j].vertex);
        EXPECT_EQ(result->knn[i][j].path_probability,
                  legacy[j].path_probability);
      }
    }
  }
}

TEST(QueryGoldenTest, MostProbablePathMatchesLegacyAtEveryThreadCount) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  for (int threads : kThreadLadder) {
    GraphSession session = SessionWithThreads(threads);
    QueryRequest request = BaseRequest("most-probable-path");
    request.estimator = Estimator::kAuto;
    Result<QueryResult> result = session.Run(request);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->paths.size(), TestPairs().size());
    for (std::size_t i = 0; i < TestPairs().size(); ++i) {
      MostProbablePath legacy =
          FindMostProbablePath(g, TestPairs()[i].s, TestPairs()[i].t);
      EXPECT_EQ(result->paths[i].vertices, legacy.vertices);
      EXPECT_EQ(result->paths[i].probability, legacy.probability);
      EXPECT_EQ(result->means[i], legacy.probability);
    }
  }
}

// ---------------------------------------------------------------------
// Validation.
// ---------------------------------------------------------------------

TEST(QueryValidationTest, PairQueriesRejectMissingAndOutOfRangePairs) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request;
  request.query = "reliability";
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
  request.pairs = {{0, 99}};
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryValidationTest, SampleCountMustBePositive) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request = BaseRequest("connectivity");
  request.num_samples = 0;
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryValidationTest, StratifiedStrataMustFitTheSampleBudget) {
  // StratifiedEstimate draws at least one world in each of its
  // 2^min(r, |E|) strata, so Validate refuses a budget below that count
  // before the session draws any world.
  GraphSession path(testing_util::PathGraph(70, 0.5));  // 69 edges.
  Result<std::unique_ptr<Query>> query = MakeQueryByName("connectivity");
  ASSERT_TRUE(query.ok());
  QueryRequest request = BaseRequest("connectivity");
  request.estimator = Estimator::kStratified;
  request.num_pivot_edges = 62;
  request.num_samples = std::numeric_limits<int>::max();
  ASSERT_EQ((*query)->Validate(path.graph(), request).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(path.Run(request).status().code(), StatusCode::kInvalidArgument);

  // 2^r == num_samples is the largest stratification the budget covers.
  request.num_pivot_edges = 4;
  request.num_samples = 16;
  Result<QueryResult> exact_fit = path.Run(request);
  ASSERT_TRUE(exact_fit.ok()) << exact_fit.status().ToString();
  EXPECT_EQ(exact_fit->estimator, Estimator::kStratified);
  request.num_samples = 15;
  EXPECT_EQ(path.Run(request).status().code(), StatusCode::kInvalidArgument);

  // r beyond |E| pivots every edge: 2^|E| strata, not 2^r.
  GraphSession k4(testing_util::CompleteK4(0.5));  // 6 edges.
  request.num_pivot_edges = 40;
  request.num_samples = 64;
  Result<QueryResult> all_pivoted = k4.Run(request);
  ASSERT_TRUE(all_pivoted.ok()) << all_pivoted.status().ToString();
  EXPECT_EQ(all_pivoted->estimator, Estimator::kStratified);
  request.num_samples = 63;
  EXPECT_EQ(k4.Run(request).status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryValidationTest, PageRankRejectsBadOptions) {
  GraphSession session(testing_util::CompleteK4(0.5));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto code_with = [&](auto edit) {
    QueryRequest request = BaseRequest("pagerank");
    edit(request.pagerank);
    return session.Run(request).status().code();
  };
  for (double damping : {nan, -0.1, 1.5, inf, -inf}) {
    EXPECT_EQ(code_with([&](PageRankOptions& o) { o.damping = damping; }),
              StatusCode::kInvalidArgument)
        << "damping " << damping;
  }
  for (double tolerance : {nan, -1e-12}) {
    EXPECT_EQ(code_with([&](PageRankOptions& o) { o.tolerance = tolerance; }),
              StatusCode::kInvalidArgument)
        << "tolerance " << tolerance;
  }
  EXPECT_EQ(code_with([](PageRankOptions& o) { o.max_iterations = -1; }),
            StatusCode::kInvalidArgument);
  // The ends of each range are valid.
  EXPECT_EQ(code_with([](PageRankOptions& o) { o.damping = 0.0; }),
            StatusCode::kOk);
  EXPECT_EQ(code_with([](PageRankOptions& o) { o.damping = 1.0; }),
            StatusCode::kOk);
  EXPECT_EQ(code_with([](PageRankOptions& o) {
              o.tolerance = 0.0;
              o.max_iterations = 0;
            }),
            StatusCode::kOk);
}

TEST(QueryValidationTest, KnnRejectsBadSourcesAndZeroK) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request;
  request.query = "knn";
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
  request.sources = {9};
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
  request.sources = {1};
  request.k = 0;
  EXPECT_EQ(session.Run(request).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ugs
