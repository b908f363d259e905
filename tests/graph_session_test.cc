#include "query/graph_session.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

QueryRequest ConnectivityRequest(std::uint64_t seed) {
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 32;
  request.seed = seed;
  request.estimator = Estimator::kSampled;
  return request;
}

TEST(GraphSessionTest, OpenMissingFileFails) {
  Result<std::unique_ptr<GraphSession>> session =
      GraphSession::Open("/nonexistent/graph.txt");
  ASSERT_FALSE(session.ok());
}

TEST(GraphSessionTest, OpenLoadsGraphWithItsStats) {
  UncertainGraph g = testing_util::PaperFigure2Graph();
  std::string path = ::testing::TempDir() + "/session_graph.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Result<std::unique_ptr<GraphSession>> session = GraphSession::Open(path);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->graph().num_vertices(), g.num_vertices());
  EXPECT_EQ((*session)->graph().num_edges(), g.num_edges());
  const GraphStats expected = ComputeStats(g);
  const GraphStats loaded = ComputeStats((*session)->graph());
  EXPECT_EQ(loaded.num_edges, expected.num_edges);
  EXPECT_DOUBLE_EQ(loaded.entropy_bits, expected.entropy_bits);
}

TEST(GraphSessionTest, ResultRecordsCanonicalNameEstimatorAndTime) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request;
  request.query = "cc";  // Alias; the result reports the canonical name.
  request.num_samples = 8;
  Result<QueryResult> result = session.Run(request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->query, "clustering");
  EXPECT_NE(result->estimator, Estimator::kAuto);
  EXPECT_GE(result->seconds, 0.0);
}

TEST(GraphSessionTest, UnknownQuerySurfacesNotFound) {
  GraphSession session(testing_util::CompleteK4(0.5));
  QueryRequest request;
  request.query = "nope";
  Result<QueryResult> result = session.Run(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(GraphSessionTest, OverlapMatrixIsBitIdenticalAtEveryWidth) {
  // The engine-leg overlap determinism matrix: 1/2/8 executor threads x
  // 1/2/8 request drivers overlapping on ONE session. The executor
  // interleaves the drivers' sample batches across the shared pool; the
  // seed-split contract must keep every result bit-identical to the
  // serial reference no matter the interleaving, and a malformed request
  // must fail alone without touching its neighbours' results.
  std::vector<QueryRequest> requests;
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    requests.push_back(ConnectivityRequest(seed));
  }
  QueryRequest reliability;
  reliability.query = "reliability";
  reliability.pairs = {{0, 3}, {1, 2}};
  reliability.num_samples = 48;
  reliability.seed = 6;
  requests.push_back(reliability);
  QueryRequest pagerank;
  pagerank.query = "pagerank";
  pagerank.num_samples = 24;
  pagerank.seed = 7;
  requests.push_back(pagerank);
  QueryRequest bad;
  bad.query = "not-a-query";
  requests.insert(requests.begin() + 2, bad);

  GraphSession reference(testing_util::CompleteK4(0.5));
  std::vector<QueryResult> expected;
  for (const QueryRequest& request : requests) {
    Result<QueryResult> r = reference.Run(request);
    if (request.query == bad.query) {
      ASSERT_EQ(r.status().code(), StatusCode::kNotFound);
      expected.emplace_back();
      continue;
    }
    ASSERT_TRUE(r.ok()) << request.query;
    expected.push_back(*r);
  }

  for (int threads : {1, 2, 8}) {
    GraphSessionOptions options;
    options.engine.num_threads = threads;
    GraphSession session(testing_util::CompleteK4(0.5), options);
    for (int overlap : {1, 2, 8}) {
      // overlap drivers each run the full request set concurrently; a
      // result slot per (driver, request) keeps writes disjoint.
      std::vector<std::vector<Result<QueryResult>>> got(
          static_cast<std::size_t>(overlap));
      std::vector<std::thread> drivers;
      drivers.reserve(static_cast<std::size_t>(overlap));
      for (int d = 0; d < overlap; ++d) {
        drivers.emplace_back([&, d] {
          std::vector<Result<QueryResult>>& mine =
              got[static_cast<std::size_t>(d)];
          mine.reserve(requests.size());
          for (const QueryRequest& request : requests) {
            mine.push_back(session.Run(request));
          }
        });
      }
      for (std::thread& driver : drivers) driver.join();
      for (int d = 0; d < overlap; ++d) {
        const std::vector<Result<QueryResult>>& mine =
            got[static_cast<std::size_t>(d)];
        ASSERT_EQ(mine.size(), requests.size());
        for (std::size_t r = 0; r < requests.size(); ++r) {
          if (requests[r].query == bad.query) {
            ASSERT_FALSE(mine[r].ok())
                << "driver " << d << " at " << threads << " threads x "
                << overlap << " overlap";
            EXPECT_EQ(mine[r].status().code(), StatusCode::kNotFound);
            continue;
          }
          ASSERT_TRUE(mine[r].ok())
              << requests[r].query << " driver " << d << " at " << threads
              << " threads x " << overlap << " overlap: "
              << mine[r].status().ToString();
          EXPECT_TRUE(mine[r]->samples == expected[r].samples)
              << requests[r].query << " driver " << d << " at " << threads
              << " threads x " << overlap << " overlap";
          EXPECT_EQ(mine[r]->scalar, expected[r].scalar)
              << requests[r].query << " driver " << d;
          EXPECT_EQ(mine[r]->means, expected[r].means)
              << requests[r].query << " driver " << d;
        }
      }
    }
  }
}

TEST(GraphSessionTest, EnginesAndVersionsShareOnePool) {
  GraphSessionOptions options;
  options.engine.num_threads = 3;
  auto v1 = std::make_unique<GraphSession>(testing_util::CompleteK4(0.5),
                                           options);
  // The plain and the skip-sampler engine hold the session's one pool.
  EXPECT_EQ(v1->engine().shared_pool().use_count(), 2);
  EXPECT_EQ(v1->engine().num_threads(), 3);

  const std::vector<EdgeUpdate> batch = {
      {.op = EdgeUpdateOp::kReweight, .u = 0, .v = 1, .p = 0.9}};
  Result<std::unique_ptr<GraphSession>> v2 = v1->WithUpdates(batch, 2);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  std::unique_ptr<GraphSession> next = std::move(*v2);
  EXPECT_EQ(&next->engine().pool(), &v1->engine().pool());
  EXPECT_EQ(next->engine().shared_pool().use_count(), 4);

  // The successor keeps the pool alive after its predecessor is gone,
  // and answers both samplers on it exactly like a fresh session.
  v1.reset();
  EXPECT_EQ(next->engine().shared_pool().use_count(), 2);
  GraphSession fresh(next->graph(), options);
  for (Estimator estimator : {Estimator::kSampled, Estimator::kSkipSampler}) {
    QueryRequest request = ConnectivityRequest(17);
    request.estimator = estimator;
    Result<QueryResult> got = next->Run(request);
    Result<QueryResult> want = fresh.Run(request);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->estimator, estimator);
    EXPECT_EQ(got->scalar, want->scalar);
  }
}

TEST(GraphSessionTest, IdenticalRequestsAgreeAcrossSessions) {
  GraphSessionOptions wide;
  wide.engine.num_threads = 8;
  GraphSession a(testing_util::PathGraph(12, 0.4));
  GraphSession b(testing_util::PathGraph(12, 0.4), wide);
  QueryRequest request;
  request.query = "shortest-path";
  request.pairs = {{0, 11}, {3, 7}};
  request.num_samples = 48;
  request.seed = 9;
  request.estimator = Estimator::kSampled;
  Result<QueryResult> ra = a.Run(request);
  Result<QueryResult> rb = b.Run(request);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ra->samples == rb->samples);
  EXPECT_EQ(ra->means, rb->means);
}

}  // namespace
}  // namespace ugs
