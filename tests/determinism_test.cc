// Reproducibility guarantees: every sparsifier is a pure function of
// (graph, alpha, seed). These tests pin that contract -- regressions here
// usually mean hidden global state or container-order dependence.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "metrics/discrepancy.h"
#include "query/clustering.h"
#include "query/exact.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/sample_engine.h"
#include "query/shortest_path.h"
#include "query/stratified.h"
#include "sparsify/ni.h"
#include "sparsify/representative.h"
#include "sparsify/sparsifier.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace ugs {
namespace {

const UncertainGraph& DeterminismGraph() {
  static const UncertainGraph* graph = [] {
    Rng rng(777);
    return new UncertainGraph(GenerateErdosRenyi(
        90, 900, ProbabilityDistribution::Uniform(0.05, 0.8), &rng));
  }();
  return *graph;
}

/// Parameter name "t<threads>" of the 1/2/8-thread matrices. Built by
/// appending: GCC 12 at -O3 flags `"t" + std::to_string(...)` here with
/// a false -Wrestrict.
std::string ThreadsName(const ::testing::TestParamInfo<int>& info) {
  std::string name = "t";
  name += std::to_string(info.param);
  return name;
}

bool SameGraph(const UncertainGraph& a, const UncertainGraph& b) {
  if (a.num_edges() != b.num_edges()) return false;
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    if (a.edge(e).u != b.edge(e).u || a.edge(e).v != b.edge(e).v ||
        a.edge(e).p != b.edge(e).p) {
      return false;
    }
  }
  return true;
}

class SparsifierDeterminismTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SparsifierDeterminismTest, SameSeedSameOutput) {
  auto method = MakeSparsifierByName(GetParam());
  ASSERT_TRUE(method.ok());
  Rng rng1(4242), rng2(4242);
  auto a = (*method)->Sparsify(DeterminismGraph(), 0.32, &rng1);
  auto b = (*method)->Sparsify(DeterminismGraph(), 0.32, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameGraph(a->graph, b->graph));
  EXPECT_EQ(a->original_edge_ids, b->original_edge_ids);
}

TEST_P(SparsifierDeterminismTest, DifferentSeedsUsuallyDiffer) {
  auto method = MakeSparsifierByName(GetParam());
  ASSERT_TRUE(method.ok());
  Rng rng1(1), rng2(2);
  auto a = (*method)->Sparsify(DeterminismGraph(), 0.32, &rng1);
  auto b = (*method)->Sparsify(DeterminismGraph(), 0.32, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // All methods have randomized backbones / sampling, so different seeds
  // should pick different edge sets on a 900-edge graph. (Equality would
  // not be a bug per se, but it would be astronomically unlikely.)
  EXPECT_FALSE(a->original_edge_ids == b->original_edge_ids);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, SparsifierDeterminismTest,
    ::testing::Values("GDBA", "GDBR-t", "GDBA2", "EMDA", "EMDR-t", "LP",
                      "LP-t", "NI", "SS"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The SampleEngine contract: every sampling query returns bit-identical
/// McSamples at any engine thread count, because per-sample RNG streams
/// are derived by seed-splitting, not by draw order.
class EngineThreadCountTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr int kSamples = 64;
  const UncertainGraph& graph() { return DeterminismGraph(); }
  SampleEngine MakeEngine() {
    return SampleEngine(SampleEngineOptions{.num_threads = GetParam()});
  }
  SampleEngine MakeSerial() {
    return SampleEngine(SampleEngineOptions{.num_threads = 1});
  }
  std::vector<VertexPair> Pairs() {
    Rng rng(11);
    return SampleDistinctPairs(graph().num_vertices(), 12, &rng);
  }
};

TEST_P(EngineThreadCountTest, ReliabilityBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(123), r2(123);
  McSamples a = McReliability(graph(), Pairs(), kSamples, &r1, serial);
  McSamples b = McReliability(graph(), Pairs(), kSamples, &r2, threaded);
  EXPECT_TRUE(a == b);
}

TEST_P(EngineThreadCountTest, ShortestPathBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(124), r2(124);
  McSamples a = McShortestPath(graph(), Pairs(), kSamples, &r1, serial);
  McSamples b = McShortestPath(graph(), Pairs(), kSamples, &r2, threaded);
  EXPECT_TRUE(a == b);
}

TEST_P(EngineThreadCountTest, PageRankBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(125), r2(125);
  McSamples a = McPageRank(graph(), kSamples, &r1, {}, serial);
  McSamples b = McPageRank(graph(), kSamples, &r2, {}, threaded);
  EXPECT_TRUE(a == b);
}

TEST_P(EngineThreadCountTest, ClusteringBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(126), r2(126);
  McSamples a = McClusteringCoefficient(graph(), kSamples, &r1, serial);
  McSamples b = McClusteringCoefficient(graph(), kSamples, &r2, threaded);
  EXPECT_TRUE(a == b);
}

TEST_P(EngineThreadCountTest, ConnectivityBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  Rng r1(127), r2(127);
  EXPECT_EQ(EstimateConnectivity(graph(), kSamples, &r1, serial),
            EstimateConnectivity(graph(), kSamples, &r2, threaded));
}

TEST_P(EngineThreadCountTest, StratifiedBitIdentical) {
  SampleEngine serial = MakeSerial();
  SampleEngine threaded = MakeEngine();
  auto factory = [this]() -> WorldQuery {
    auto uf = std::make_shared<UnionFind>(graph().num_vertices());
    return [uf](const PossibleWorld& world) {
      ConnectOnWorld(world, uf.get());
      return uf->num_components() == 1 ? 1.0 : 0.0;
    };
  };
  StratifiedOptions options;
  options.total_samples = 128;
  Rng r1(128), r2(128);
  EXPECT_EQ(StratifiedEstimate(graph(), factory, options, &r1, serial),
            StratifiedEstimate(graph(), factory, options, &r2, threaded));
}

TEST_P(EngineThreadCountTest, SkipSamplerBitIdentical) {
  SampleEngineOptions serial_options{.num_threads = 1,
                                     .use_skip_sampler = true};
  SampleEngineOptions threaded_options{.num_threads = GetParam(),
                                       .use_skip_sampler = true};
  SampleEngine serial(serial_options);
  SampleEngine threaded(threaded_options);
  Rng r1(129), r2(129);
  McSamples a = McReliability(graph(), Pairs(), kSamples, &r1, serial);
  McSamples b = McReliability(graph(), Pairs(), kSamples, &r2, threaded);
  EXPECT_TRUE(a == b);
}

INSTANTIATE_TEST_SUITE_P(Threads1_2_8, EngineThreadCountTest,
                         ::testing::Values(1, 2, 8), ThreadsName);

/// The pool-taking kernels -- exact oracles, NI calibration, the sampled
/// cut-discrepancy MAE and the greedy representative -- return the same
/// bits on a pool of any width as on a 1-thread pool.
class PoolWidthTest : public ::testing::TestWithParam<int> {
 protected:
  /// 16 edges: 2^16 worlds, so the exact oracles split the enumeration
  /// into 16 chunks across the pool.
  static UncertainGraph ExactGraph() {
    std::vector<UncertainEdge> edges;
    for (VertexId i = 0; i < 8; ++i) {
      edges.push_back({i, static_cast<VertexId>((i + 1) % 8), 0.3 + 0.05 * i});
      edges.push_back({i, static_cast<VertexId>((i + 3) % 8), 0.6 - 0.05 * i});
    }
    return UncertainGraph::FromEdges(8, std::move(edges));
  }

  ThreadPool serial_{1};
  ThreadPool pool_{GetParam()};
};

TEST_P(PoolWidthTest, ExactOraclesBitIdentical) {
  const UncertainGraph g = ExactGraph();
  EXPECT_EQ(ExactConnectivityProbability(g, serial_),
            ExactConnectivityProbability(g, pool_));
  EXPECT_EQ(ExactReliability(g, 0, 5, serial_),
            ExactReliability(g, 0, 5, pool_));
  double connect_serial = 0.0, connect_pool = 0.0;
  EXPECT_EQ(ExactExpectedDistance(g, 1, 6, &connect_serial, serial_),
            ExactExpectedDistance(g, 1, 6, &connect_pool, pool_));
  EXPECT_EQ(connect_serial, connect_pool);
}

TEST_P(PoolWidthTest, NiBitIdentical) {
  Rng r1(4242), r2(4242);
  auto a = NiSparsify(DeterminismGraph(), 0.32, {}, &r1, serial_);
  auto b = NiSparsify(DeterminismGraph(), 0.32, {}, &r2, pool_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->edges, b->edges);
  EXPECT_EQ(a->probabilities, b->probabilities);
  EXPECT_EQ(a->calibration_runs, b->calibration_runs);
}

TEST_P(PoolWidthTest, NiSparsifierBitIdentical) {
  auto serial = MakeNiSparsifier(serial_);
  auto pooled = MakeSparsifierByName("NI", 0.05, &pool_);
  ASSERT_TRUE(pooled.ok());
  Rng r1(99), r2(99);
  auto a = serial->Sparsify(DeterminismGraph(), 0.16, &r1);
  auto b = (*pooled)->Sparsify(DeterminismGraph(), 0.16, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->original_edge_ids, b->original_edge_ids);
  EXPECT_TRUE(SameGraph(a->graph, b->graph));
}

TEST_P(PoolWidthTest, CutDiscrepancyMaeBitIdentical) {
  const UncertainGraph& g = DeterminismGraph();
  std::vector<UncertainEdge> kept;
  for (EdgeId e = 0; e < g.num_edges(); e += 2) {
    UncertainEdge edge = g.edge(e);
    edge.p *= 0.5;
    kept.push_back(edge);
  }
  const UncertainGraph sparse =
      UncertainGraph::FromEdges(g.num_vertices(), std::move(kept));
  Rng r1(17), r2(17);
  EXPECT_EQ(CutDiscrepancyMae(g, sparse, {}, &r1, serial_),
            CutDiscrepancyMae(g, sparse, {}, &r2, pool_));
  Rng r3(18), r4(18);
  EXPECT_EQ(CutDiscrepancyMaeForSetSize(g, sparse, 7, 100, &r3, serial_),
            CutDiscrepancyMaeForSetSize(g, sparse, 7, 100, &r4, pool_));
}

TEST_P(PoolWidthTest, GreedyRepresentativeBitIdentical) {
  Rng r1(5), r2(5);
  EXPECT_EQ(GreedyDegreeRepresentative(DeterminismGraph(), &r1, serial_),
            GreedyDegreeRepresentative(DeterminismGraph(), &r2, pool_));
}

INSTANTIATE_TEST_SUITE_P(Threads1_2_8, PoolWidthTest,
                         ::testing::Values(1, 2, 8), ThreadsName);

TEST(GeneratorDeterminismTest, ChungLuSameSeed) {
  ChungLuOptions options;
  options.num_vertices = 200;
  options.avg_degree = 10.0;
  auto dist = ProbabilityDistribution::Uniform(0.1, 0.9);
  Rng r1(5), r2(5);
  EXPECT_TRUE(SameGraph(GenerateChungLu(options, dist, &r1),
                        GenerateChungLu(options, dist, &r2)));
}

}  // namespace
}  // namespace ugs
