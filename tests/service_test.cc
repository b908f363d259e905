#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "query/graph_session.h"
#include "service/client.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/wire.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

/// End-to-end tests of ugs_serve's engine: Server + Client over a real
/// loopback socket, asserting the serving determinism contract -- a
/// response is bit-identical (PayloadEquals) to GraphSession::Run locally
/// at any worker count, under any request overlap, cache on or off, with
/// registry eviction active.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir();
    ASSERT_TRUE(
        SaveEdgeList(testing_util::CompleteK4(0.5), Path("g1")).ok());
    ASSERT_TRUE(
        SaveEdgeList(testing_util::PathGraph(12, 0.4), Path("g2")).ok());
    ASSERT_TRUE(
        SaveEdgeList(testing_util::StarGraph(8, 0.3), Path("g3")).ok());
  }

  std::string Path(const std::string& id) const {
    return dir_ + "/" + Id(id) + ".txt";
  }
  std::string Id(const std::string& id) const { return "svctest_" + id; }

  std::unique_ptr<Server> StartServerWith(ServerOptions options) {
    options.port = 0;  // Ephemeral; tests read it back from port().
    options.registry.graph_dir = dir_;
    auto server = std::make_unique<Server>(options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  Client ConnectTo(const Server& server) {
    Result<Client> client = Client::Connect("127.0.0.1", server.port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client.value());
  }

  /// A raw loopback socket speaking frames directly (for byte-level
  /// assertions the Client's decode step would hide).
  int RawConnect(const Server& server) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  /// A request per query kind / estimator shape (all valid on every test
  /// graph: >= 8 vertices is not required, pairs and sources stay < 4).
  static std::vector<QueryRequest> CoveringRequests() {
    std::vector<QueryRequest> requests;
    QueryRequest reliability;
    reliability.query = "reliability";
    reliability.pairs = {{0, 3}};
    reliability.num_samples = 32;
    reliability.seed = 3;
    requests.push_back(reliability);

    QueryRequest skip = reliability;
    skip.estimator = Estimator::kSkipSampler;
    skip.seed = 4;
    requests.push_back(skip);

    QueryRequest stratified = reliability;
    stratified.estimator = Estimator::kStratified;
    stratified.num_pivot_edges = 3;
    stratified.seed = 5;
    requests.push_back(stratified);

    QueryRequest connectivity;
    connectivity.query = "connectivity";
    connectivity.num_samples = 32;
    connectivity.estimator = Estimator::kExact;
    requests.push_back(connectivity);

    QueryRequest sp;
    sp.query = "shortest-path";
    sp.pairs = {{0, 2}, {1, 3}};
    sp.num_samples = 32;
    sp.seed = 6;
    requests.push_back(sp);

    QueryRequest pagerank;
    pagerank.query = "pagerank";
    pagerank.num_samples = 16;
    pagerank.seed = 7;
    requests.push_back(pagerank);

    QueryRequest clustering;
    clustering.query = "clustering";
    clustering.num_samples = 16;
    clustering.seed = 8;
    requests.push_back(clustering);

    QueryRequest knn;
    knn.query = "knn";
    knn.sources = {0, 2};
    knn.k = 3;
    requests.push_back(knn);

    QueryRequest mpp;
    mpp.query = "most-probable-path";
    mpp.pairs = {{0, 3}};
    requests.push_back(mpp);
    return requests;
  }

  std::string dir_;
};

/// One server configuration the shared test battery runs under (the
/// epoll reactor is the only backend; the cache leg re-runs everything
/// through the result cache's hit path).
struct ServerParam {
  std::size_t cache_entries;  ///< 0 = result cache disabled.
  const char* name;
};

class ServiceBackendTest : public ServiceTest,
                           public ::testing::WithParamInterface<ServerParam> {
 protected:
  std::unique_ptr<Server> StartServer(int workers,
                                      std::size_t max_sessions = 8) {
    ServerOptions options;
    options.cache.max_entries = GetParam().cache_entries;
    options.num_workers = workers;
    options.registry.max_sessions = max_sessions;
    return StartServerWith(options);
  }
};

INSTANTIATE_TEST_SUITE_P(
    Configs, ServiceBackendTest,
    ::testing::Values(ServerParam{0, "epoll"},
                      ServerParam{64, "epoll_cached"}),
    [](const ::testing::TestParamInfo<ServerParam>& info) {
      return info.param.name;
    });

TEST_P(ServiceBackendTest, ResponsesBitIdenticalToLocalRunsAtEveryWorkerCount) {
  // The acceptance contract: every query kind, served through a
  // 1-session registry (so graph cycling keeps eviction active), at 1, 2
  // and 8 server workers, answers bit-identically to a local
  // GraphSession::Run of the same request. Under the cached
  // instantiation a second pass re-asks everything: those answers come
  // from the result cache and must still be bit-identical.
  const std::vector<QueryRequest> requests = CoveringRequests();
  const std::vector<std::string> graphs = {"g1", "g2", "g3"};

  // Local reference results, one session per graph.
  std::vector<std::vector<QueryResult>> expected;
  for (const std::string& g : graphs) {
    Result<std::unique_ptr<GraphSession>> session =
        GraphSession::Open(Path(g));
    ASSERT_TRUE(session.ok());
    std::vector<QueryResult> per_graph;
    for (const QueryRequest& request : requests) {
      Result<QueryResult> result = (*session)->Run(request);
      ASSERT_TRUE(result.ok()) << request.query << ": "
                               << result.status().ToString();
      per_graph.push_back(*result);
    }
    expected.push_back(std::move(per_graph));
  }

  const bool cached = GetParam().cache_entries > 0;
  for (int workers : {1, 2, 8}) {
    std::unique_ptr<Server> server = StartServer(workers,
                                                 /*max_sessions=*/1);
    Client client = ConnectTo(*server);
    // Interleave graphs per request so every query lands on a freshly
    // re-opened session (the 1-entry registry evicts on each switch).
    for (int pass = 0; pass < (cached ? 2 : 1); ++pass) {
      for (std::size_t r = 0; r < requests.size(); ++r) {
        for (std::size_t g = 0; g < graphs.size(); ++g) {
          Result<QueryResult> result =
              client.Query(Id(graphs[g]), requests[r]);
          ASSERT_TRUE(result.ok())
              << requests[r].query << " on " << graphs[g] << " at "
              << workers << " workers: " << result.status().ToString();
          EXPECT_TRUE(PayloadEquals(*result, expected[g][r]))
              << requests[r].query << " on " << graphs[g] << " at "
              << workers << " workers, pass " << pass;
        }
      }
    }
    EXPECT_GT(server->registry().counters().evictions, 0u);
    if (cached) {
      // The whole second pass was served from the cache.
      EXPECT_GE(server->cache().counters().hits,
                requests.size() * graphs.size());
    }
    server->Stop();
  }
}

TEST_P(ServiceBackendTest, ConcurrentClientsAllGetCorrectAnswers) {
  std::unique_ptr<Server> server = StartServer(/*workers=*/4);
  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 3}};
  request.num_samples = 64;
  request.seed = 11;

  Result<std::unique_ptr<GraphSession>> local =
      GraphSession::Open(Path("g2"));
  ASSERT_TRUE(local.ok());
  Result<QueryResult> expected = (*local)->Run(request);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 6;
  std::vector<int> ok(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([this, &server, &request, &expected, &ok, i] {
      Result<Client> client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) return;
      for (int repeat = 0; repeat < 3; ++repeat) {
        Result<QueryResult> result =
            client->Query(Id("g2"), request);
        if (!result.ok() || !PayloadEquals(*result, *expected)) return;
      }
      ok[static_cast<std::size_t>(i)] = 1;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(ok[static_cast<std::size_t>(i)], 1) << "client " << i;
  }
  EXPECT_EQ(server->stats().requests,
            static_cast<std::uint64_t>(kClients * 3));
}

TEST_P(ServiceBackendTest, OverlapMatrixIsBitIdenticalAtEveryWidth) {
  // The serving leg of the overlap determinism matrix: every covering
  // query at 1/2/8 dispatch workers x 1/2/8 concurrent clients hammering
  // ONE graph's session, served through a 1-entry registry that a second
  // graph keeps cycling (eviction active) -- and, on the cached
  // instantiation, with result-cache hits mixed into the overlap. Every
  // response must be bit-identical to the local reference run.
  const std::vector<QueryRequest> requests = CoveringRequests();
  Result<std::unique_ptr<GraphSession>> local =
      GraphSession::Open(Path("g1"));
  ASSERT_TRUE(local.ok());
  std::vector<QueryResult> expected;
  for (const QueryRequest& request : requests) {
    Result<QueryResult> result = (*local)->Run(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected.push_back(*result);
  }

  QueryRequest evictor;  // Touches g2 so the 1-entry registry cycles.
  evictor.query = "connectivity";
  evictor.num_samples = 8;
  evictor.seed = 99;

  for (int workers : {1, 2, 8}) {
    std::unique_ptr<Server> server = StartServer(workers,
                                                 /*max_sessions=*/1);
    for (int overlap : {1, 2, 8}) {
      std::vector<int> ok(static_cast<std::size_t>(overlap), 0);
      std::vector<std::thread> clients;
      clients.reserve(static_cast<std::size_t>(overlap));
      for (int c = 0; c < overlap; ++c) {
        clients.emplace_back([this, &server, &requests, &expected,
                              &evictor, &ok, c] {
          Result<Client> client =
              Client::Connect("127.0.0.1", server->port());
          if (!client.ok()) return;
          for (std::size_t r = 0; r < requests.size(); ++r) {
            Result<QueryResult> result =
                client->Query(Id("g1"), requests[r]);
            if (!result.ok() || !PayloadEquals(*result, expected[r])) {
              return;
            }
            // Every other client interleaves an eviction-forcing query
            // on the second graph mid-overlap.
            if (c % 2 == 1 && !client->Query(Id("g2"), evictor).ok()) {
              return;
            }
          }
          ok[static_cast<std::size_t>(c)] = 1;
        });
      }
      for (std::thread& client : clients) client.join();
      for (int c = 0; c < overlap; ++c) {
        EXPECT_EQ(ok[static_cast<std::size_t>(c)], 1)
            << "client " << c << " at " << workers << " workers x "
            << overlap << " overlap";
      }
    }
    EXPECT_GT(server->registry().counters().evictions, 0u);
    if (GetParam().cache_entries > 0) {
      EXPECT_GT(server->cache().counters().hits, 0u);
    }
    server->Stop();
  }
}

TEST_P(ServiceBackendTest, RequestErrorsAreTypedAndConnectionSurvives) {
  std::unique_ptr<Server> server = StartServer(1);
  Client client = ConnectTo(*server);

  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 1}};
  request.num_samples = 8;

  // Unknown graph id.
  Result<QueryResult> missing = client.Query("svctest_nope", request);
  ASSERT_FALSE(missing.ok());

  // Path-escaping graph id.
  Result<QueryResult> escape = client.Query("../etc/passwd", request);
  ASSERT_FALSE(escape.ok());
  EXPECT_EQ(escape.status().code(), StatusCode::kInvalidArgument);

  // Unknown query name -> the registry's NotFound, carried end to end.
  QueryRequest bad = request;
  bad.query = "no-such-query";
  Result<QueryResult> unknown = client.Query(Id("g1"), bad);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // Validation failure (out-of-range pair).
  QueryRequest invalid = request;
  invalid.pairs = {{0, 4000}};
  Result<QueryResult> out_of_range = client.Query(Id("g1"), invalid);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  // After all those per-request errors the connection still answers.
  Result<QueryResult> good = client.Query(Id("g1"), request);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_GE(server->stats().errors, 4u);
}

TEST_P(ServiceBackendTest, BadPageRankOptionsGetTypedErrorsAndServerAnswers) {
  std::unique_ptr<Server> server = StartServer(1);
  Client client = ConnectTo(*server);

  QueryRequest request;
  request.query = "pagerank";
  request.num_samples = 4;
  request.pagerank.max_iterations = 5;

  // Each field travels as a raw f64/i32; out-of-range values come back as
  // typed errors before any sampling.
  std::vector<QueryRequest> bad(4, request);
  bad[0].pagerank.damping = std::numeric_limits<double>::quiet_NaN();
  bad[1].pagerank.damping = 2.0;
  bad[2].pagerank.tolerance = -1.0;
  bad[3].pagerank.max_iterations = -7;
  for (const QueryRequest& r : bad) {
    Result<QueryResult> result = client.Query(Id("g1"), r);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << result.status().ToString();
  }

  Result<QueryResult> good = client.Query(Id("g1"), request);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->samples.num_samples, 4u);
  EXPECT_GE(server->stats().errors, 4u);
}

TEST_P(ServiceBackendTest, MalformedPayloadGetsTypedErrorAndSurvives) {
  std::unique_ptr<Server> server = StartServer(1);
  int fd = RawConnect(*server);

  // A well-framed but undecodable request payload.
  ASSERT_TRUE(WriteFrame(fd, FrameType::kRequest, "garbage").ok());
  Result<std::optional<Frame>> reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->has_value());
  ASSERT_EQ((*reply)->type, FrameType::kError);
  Status carried;
  ASSERT_TRUE(DecodeError((*reply)->payload, &carried).ok());
  EXPECT_FALSE(carried.ok());

  // The framing survived, so the connection still serves stats.
  ASSERT_TRUE(WriteFrame(fd, FrameType::kStats, "").ok());
  reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply->has_value());
  EXPECT_EQ((*reply)->type, FrameType::kStatsReply);
  ::close(fd);
}

TEST_P(ServiceBackendTest, GarbageFrameHeaderGetsErrorThenClose) {
  std::unique_ptr<Server> server = StartServer(1);
  int fd = RawConnect(*server);

  // An unparseable header (impossible length): the server answers one
  // typed error, then drops the connection -- there is no frame boundary
  // left to resynchronize on.
  const char garbage[] = "\xff\xff\xff\xff\x01";
  ASSERT_EQ(::send(fd, garbage, 5, 0), 5);
  Result<std::optional<Frame>> reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->has_value());
  EXPECT_EQ((*reply)->type, FrameType::kError);
  Status carried;
  ASSERT_TRUE(DecodeError((*reply)->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);

  // End-of-stream follows: the server closed its side.
  reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_FALSE(reply->has_value());
  ::close(fd);
}

TEST_P(ServiceBackendTest, TruncatedFrameAtEofGetsTypedError) {
  // A header promising 100 payload bytes, then only 2 and a half-close:
  // both backends must answer one typed mid-frame-EOF error and close.
  std::unique_ptr<Server> server = StartServer(1);
  int fd = RawConnect(*server);
  const char partial[] = {100, 0, 0, 0, 1, 'x', 'y'};
  ASSERT_EQ(::send(fd, partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  Result<std::optional<Frame>> reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->has_value());
  ASSERT_EQ((*reply)->type, FrameType::kError);
  Status carried;
  ASSERT_TRUE(DecodeError((*reply)->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kIOError) << carried.ToString();

  reply = ReadFrame(fd);  // End-of-stream follows.
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->has_value());
  EXPECT_GE(server->stats().errors, 1u);
  ::close(fd);
}

TEST_P(ServiceBackendTest, PipelinedRepliesArriveInRequestOrder) {
  // A pipelined batch: heterogeneous requests, one invalid in the
  // middle. Every slot must answer its own request -- result i
  // bit-identical to the local run of request i, the bad slot a typed
  // error that displaces nothing.
  std::unique_ptr<Server> server = StartServer(/*workers=*/4);
  const std::vector<QueryRequest> covering = CoveringRequests();

  Result<std::unique_ptr<GraphSession>> local =
      GraphSession::Open(Path("g1"));
  ASSERT_TRUE(local.ok());

  std::vector<WireRequest> batch;
  std::vector<Result<QueryResult>> expected;
  for (const QueryRequest& request : covering) {
    batch.push_back({Id("g1"), request});
    expected.push_back((*local)->Run(request));
  }
  QueryRequest bad;
  bad.query = "no-such-query";
  batch.insert(batch.begin() + 3, {Id("g1"), bad});
  expected.insert(expected.begin() + 3,
                  Status::NotFound("placeholder"));

  Client client = ConnectTo(*server);
  std::vector<Result<QueryResult>> results = client.QueryPipelined(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (!expected[i].ok()) {
      ASSERT_FALSE(results[i].ok()) << "slot " << i;
      EXPECT_EQ(results[i].status().code(), StatusCode::kNotFound)
          << "slot " << i;
      continue;
    }
    ASSERT_TRUE(results[i].ok())
        << "slot " << i << ": " << results[i].status().ToString();
    EXPECT_TRUE(PayloadEquals(*results[i], *expected[i]))
        << "slot " << i << " (" << batch[i].request.query
        << ") answered out of order";
  }
}

TEST_P(ServiceBackendTest, StatsVerbReportsServerCacheAndRegistry) {
  std::unique_ptr<Server> server = StartServer(2);
  Client client = ConnectTo(*server);
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 8;
  ASSERT_TRUE(client.Query(Id("g1"), request).ok());

  // The one stable stats schema (docs/operations.md): server, cache,
  // and registry objects, always all present.
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"server\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"backend\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"cache\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"registry\""), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"requests\":1"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"enabled\":"), std::string::npos) << *stats;
  // Health-monitor fields (schema bump in docs/operations.md): uptime
  // since Start and the in-flight gauge -- which includes this very
  // stats request, still open while its JSON is rendered.
  EXPECT_NE(stats->find("\"uptime_ms\":"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"in_flight\":1"), std::string::npos) << *stats;
  ServerStats counters = server->stats();
  EXPECT_GE(counters.uptime_ms, 0u);
  EXPECT_EQ(counters.in_flight, 0u);  // Nothing open between requests.
  // Per-graph residency objects carry bytes + engine pool width.
  EXPECT_NE(stats->find("\"resident\":[{\"id\":"), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"engine_threads\":"), std::string::npos) << *stats;

  // The graph-description form sizes client-side request draws.
  Result<std::string> describe = client.Stats(Id("g2"));
  ASSERT_TRUE(describe.ok());
  EXPECT_NE(describe->find("\"vertices\":12"), std::string::npos)
      << *describe;
  EXPECT_NE(describe->find("\"edges\":11"), std::string::npos) << *describe;
}

TEST_F(ServiceTest, StatsJsonGrowsTelemetrySection) {
  std::unique_ptr<Server> server = StartServerWith({});
  Client client = ConnectTo(*server);
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 8;
  ASSERT_TRUE(client.Query(Id("g1"), request).ok());

  // The telemetry object is additive -- it rides after the stable
  // server/cache/registry triple (docs/operations.md). The query above
  // is fully written before Stats() can be read, so its span has been
  // folded in by the time this JSON renders.
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"telemetry\":{\"enabled\":true"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"spans_recorded\":"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"worlds_sampled\":"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"request_ms\":{\"connectivity\":{\"count\":1"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"stage_ms\":{\"decode\":"), std::string::npos)
      << *stats;
}

TEST_F(ServiceTest, MetricsSubVerbReturnsPrometheusText) {
  ServerOptions options;
  options.cache.max_entries = 4;
  std::unique_ptr<Server> server = StartServerWith(options);
  Client client = ConnectTo(*server);
  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 3}};
  request.num_samples = 16;
  ASSERT_TRUE(client.Query(Id("g1"), request).ok());
  ASSERT_TRUE(client.Query(Id("g1"), request).ok());  // Cache hit.

  Result<std::string> text = client.Stats(kMetricsStatsVerb);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("# TYPE ugs_requests_total counter"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("ugs_requests_total 2"), std::string::npos) << *text;
  EXPECT_NE(
      text->find("ugs_request_latency_seconds_bucket{kind=\"reliability\""),
      std::string::npos)
      << *text;
  EXPECT_NE(text->find("ugs_request_latency_seconds_count{"
                       "kind=\"reliability\"} 2"),
            std::string::npos)
      << *text;
  EXPECT_NE(
      text->find("ugs_result_cache_lookups_total{outcome=\"hit\"} 1"),
      std::string::npos)
      << *text;
  EXPECT_NE(text->find("ugs_registry_opens_total{storage=\"text\"} 1"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("ugs_worlds_sampled_total"), std::string::npos)
      << *text;
}

TEST_F(ServiceTest, DisabledTelemetryKeepsCountersButSkipsSpans) {
  ServerOptions options;
  options.telemetry.enabled = false;
  std::unique_ptr<Server> server = StartServerWith(options);
  Client client = ConnectTo(*server);
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 8;
  ASSERT_TRUE(client.Query(Id("g1"), request).ok());

  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"telemetry\":{\"enabled\":false"),
            std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"spans_recorded\":0"), std::string::npos) << *stats;
  // The exposition stays live: plain counters do not depend on spans.
  Result<std::string> text = client.Stats(kMetricsStatsVerb);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("ugs_requests_total 1"), std::string::npos) << *text;
}

TEST_F(ServiceTest, CachedAliasQueriesCountUnderTheCanonicalName) {
  ServerOptions options;
  options.cache.max_entries = 64;
  std::unique_ptr<Server> server = StartServerWith(options);
  Client client = ConnectTo(*server);
  QueryRequest request;
  request.query = "cc";  // Alias of clustering.
  request.num_samples = 8;
  ASSERT_TRUE(client.Query(Id("g1"), request).ok());
  ASSERT_TRUE(client.Query(Id("g1"), request).ok());  // Cache hit.
  EXPECT_EQ(server->cache().counters().hits, 1u);

  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"request_ms\":{\"clustering\":{\"count\":2"),
            std::string::npos)
      << *stats;
  EXPECT_EQ(stats->find("\"other\":"), std::string::npos) << *stats;
}

TEST_P(ServiceBackendTest, StopWithIdleConnectedClientReturns) {
  std::unique_ptr<Server> server = StartServer(2);
  Client idle = ConnectTo(*server);  // Connected but never sends.
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 8;
  Client busy = ConnectTo(*server);
  ASSERT_TRUE(busy.Query(Id("g1"), request).ok());
  // Stop must not hang on the idle connection; this call returning IS
  // the assertion.
  server->Stop();
  // After shutdown the server answers nothing.
  EXPECT_FALSE(busy.Query(Id("g1"), request).ok());
}

// --- Epoll- and cache-specific behavior. ---

TEST_F(ServiceTest, CacheHitReplaysByteIdenticalPayload) {
  ServerOptions options;
  options.num_workers = 2;
  options.cache.max_entries = 16;
  std::unique_ptr<Server> server = StartServerWith(options);

  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 3}};
  request.num_samples = 64;
  request.seed = 21;
  const std::string payload = EncodeRequest({Id("g1"), request});

  int fd = RawConnect(*server);
  // Cold run, then the hit: the reply payloads must be byte-identical --
  // not just PayloadEquals, the exact frame bytes (the result cache
  // stores the encoded response, wall time included).
  std::string replies[2];
  for (std::string& reply : replies) {
    ASSERT_TRUE(WriteFrame(fd, FrameType::kRequest, payload).ok());
    Result<std::optional<Frame>> frame = ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(frame->has_value());
    ASSERT_EQ((*frame)->type, FrameType::kResult);
    reply = (*frame)->payload;
  }
  ::close(fd);
  EXPECT_EQ(replies[0], replies[1]) << "cache hit altered response bytes";

  ResultCacheCounters counters = server->cache().counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.insertions, 1u);

  // And the cached response is still bit-identical to a local run.
  Result<QueryResult> decoded = DecodeResult(replies[1]);
  ASSERT_TRUE(decoded.ok());
  Result<std::unique_ptr<GraphSession>> local =
      GraphSession::Open(Path("g1"));
  ASSERT_TRUE(local.ok());
  Result<QueryResult> expected = (*local)->Run(request);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(PayloadEquals(*decoded, *expected));
}

TEST_F(ServiceTest, CacheDisabledIsPurePassthrough) {
  ServerOptions options;
  options.num_workers = 1;  // cache.max_entries stays 0: disabled.
  std::unique_ptr<Server> server = StartServerWith(options);

  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 3}};
  request.num_samples = 32;
  Client client = ConnectTo(*server);
  Result<QueryResult> first = client.Query(Id("g1"), request);
  ASSERT_TRUE(first.ok());
  Result<QueryResult> second = client.Query(Id("g1"), request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(PayloadEquals(*first, *second));

  ResultCacheCounters counters = server->cache().counters();
  EXPECT_EQ(counters.hits, 0u);
  EXPECT_EQ(counters.misses, 0u);
  EXPECT_EQ(counters.insertions, 0u);
}

TEST_F(ServiceTest, IdleConnectionsDoNotHoldWorkerSlots) {
  // The reactor's whole point: with ONE worker and many idle connections
  // parked on it, a late-arriving client still gets served -- an idle
  // connection costs an fd, never a worker.
  ServerOptions options;
  options.num_workers = 1;
  std::unique_ptr<Server> server = StartServerWith(options);

  std::vector<Client> idle;
  for (int i = 0; i < 16; ++i) idle.push_back(ConnectTo(*server));

  Client active = ConnectTo(*server);
  QueryRequest request;
  request.query = "connectivity";
  request.num_samples = 8;
  Result<QueryResult> result = active.Query(Id("g1"), request);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(server->stats().connections, 17u);
}

TEST_F(ServiceTest, PipelinedBurstCompletesOutOfOrderWorkInOrder) {
  // Many pipelined requests on one connection, drained by a 4-thread
  // dispatch pool: completions happen out of order, replies must not.
  ServerOptions options;
  options.num_workers = 4;
  options.cache.max_entries = 8;  // Mixed hit/miss traffic mid-burst.
  std::unique_ptr<Server> server = StartServerWith(options);

  Result<std::unique_ptr<GraphSession>> local =
      GraphSession::Open(Path("g2"));
  ASSERT_TRUE(local.ok());

  std::vector<WireRequest> batch;
  std::vector<QueryResult> expected;
  for (int i = 0; i < 24; ++i) {
    QueryRequest request;
    request.query = "reliability";
    // The request stream has period 8 (lcm of the moduli below): the
    // first 8 slots are misses that fill the cache, the next 16 hits.
    request.pairs = {{0, static_cast<VertexId>(1 + i % 8)}};
    request.num_samples = 16 + 16 * (i % 2);  // Uneven work sizes.
    request.seed = static_cast<std::uint64_t>(i % 4);
    batch.push_back({Id("g2"), request});
    Result<QueryResult> reference = (*local)->Run(request);
    ASSERT_TRUE(reference.ok());
    expected.push_back(*reference);
  }

  Client client = ConnectTo(*server);
  std::vector<Result<QueryResult>> results = client.QueryPipelined(batch);
  ASSERT_EQ(results.size(), batch.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok())
        << "slot " << i << ": " << results[i].status().ToString();
    EXPECT_TRUE(PayloadEquals(*results[i], expected[i])) << "slot " << i;
  }
  EXPECT_EQ(server->stats().requests, batch.size());
  ResultCacheCounters counters = server->cache().counters();
  EXPECT_EQ(counters.insertions, 8u);
  EXPECT_EQ(counters.hits + counters.misses, batch.size());
}

TEST_F(ServiceTest, DeepPipelineBeyondBackpressureBudgetStaysOrdered) {
  // 1500 pipelined frames on one connection exceeds the epoll backend's
  // open-slot backpressure budget (1024): the reactor must pause reading
  // while the backlog drains and resume without losing, reordering, or
  // deadlocking anything. Graph-describe stats frames cycle g1/g2/g3 so
  // every reply names the request it answers.
  ServerOptions options;
  options.num_workers = 2;
  std::unique_ptr<Server> server = StartServerWith(options);
  const std::vector<std::string> graphs = {"g1", "g2", "g3"};

  int fd = RawConnect(*server);
  constexpr int kFrames = 1500;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(
        WriteFrame(fd, FrameType::kStats, Id(graphs[i % 3])).ok())
        << "frame " << i;
  }
  for (int i = 0; i < kFrames; ++i) {
    Result<std::optional<Frame>> reply = ReadFrame(fd);
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    ASSERT_TRUE(reply->has_value()) << "reply " << i;
    ASSERT_EQ((*reply)->type, FrameType::kStatsReply) << "reply " << i;
    const std::string expected_graph =
        "\"graph\":\"" + Id(graphs[i % 3]) + "\"";
    EXPECT_NE((*reply)->payload.find(expected_graph), std::string::npos)
        << "reply " << i << " answered out of order: " << (*reply)->payload;
  }
  ::close(fd);
}

TEST_F(ServiceTest, EphemeralPortsAreIndependent) {
  ServerOptions options;
  std::unique_ptr<Server> a = StartServerWith(options);
  std::unique_ptr<Server> b = StartServerWith(options);
  EXPECT_NE(a->port(), 0);
  EXPECT_NE(b->port(), 0);
  EXPECT_NE(a->port(), b->port());
}

TEST_P(ServiceBackendTest, UpdateInvalidatesExactlyTheStaleEntries) {
  // The update-then-query contract: answers cached before a mutation
  // are never served after it (the version key changed), answers for
  // untouched graphs keep hitting, and post-update responses are
  // bit-identical to a local session built over the same mutations.
  const bool cached = GetParam().cache_entries > 0;
  std::unique_ptr<Server> server = StartServer(/*workers=*/2);
  Client client = ConnectTo(*server);
  const std::vector<QueryRequest> requests = CoveringRequests();

  Result<std::unique_ptr<GraphSession>> v1 = GraphSession::Open(Path("g1"));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  for (const QueryRequest& request : requests) {
    Result<QueryResult> result = client.Query(Id("g1"), request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Result<QueryResult> expected = (*v1)->Run(request);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(PayloadEquals(*result, *expected)) << request.query;
    EXPECT_EQ(result->graph_version, 1u) << request.query;
  }
  if (cached) {
    // Re-ask everything: the whole pass is served from the cache.
    const std::uint64_t hits_before = server->cache().counters().hits;
    for (const QueryRequest& request : requests) {
      ASSERT_TRUE(client.Query(Id("g1"), request).ok());
    }
    EXPECT_EQ(server->cache().counters().hits,
              hits_before + requests.size());
  }
  // Cache one answer for g2: it must survive g1's update untouched.
  ASSERT_TRUE(client.Query(Id("g2"), requests[0]).ok());

  // g1 is K4: every pair is an edge, so mutate by reweight + delete.
  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kReweight, 0, 1, 0.9},
      {EdgeUpdateOp::kDelete, 2, 3, 0.0}};
  Result<WireUpdateReply> ack = client.Update(Id("g1"), batch);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->version, 2u);
  EXPECT_EQ(ack->applied, 2u);
  if (cached) {
    EXPECT_GT(server->cache().counters().invalidations, 0u);
  }
  EXPECT_EQ(server->registry().counters().updates, 1u);

  Result<std::unique_ptr<GraphSession>> v2 = (*v1)->WithUpdates(batch, 2);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  const std::uint64_t hits_before = server->cache().counters().hits;
  for (const QueryRequest& request : requests) {
    Result<QueryResult> result = client.Query(Id("g1"), request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Result<QueryResult> expected = (*v2)->Run(request);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(PayloadEquals(*result, *expected)) << request.query;
    EXPECT_EQ(result->graph_version, 2u) << request.query;
  }
  // Guaranteed misses: not one post-update answer came from the cache
  // (the pre-update entries are unreachable under the new version key).
  EXPECT_EQ(server->cache().counters().hits, hits_before);
  if (cached) {
    // g2's entry was NOT invalidated: re-asking hits.
    ASSERT_TRUE(client.Query(Id("g2"), requests[0]).ok());
    EXPECT_EQ(server->cache().counters().hits, hits_before + 1);
  }

  // The stats JSON reflects the bump (additive fields only).
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"version\":2"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"updates\":1"), std::string::npos) << *stats;
}

TEST_P(ServiceBackendTest, UpdateErrorsAreTypedAndLeaveTheVersionAlone) {
  std::unique_ptr<Server> server = StartServer(/*workers=*/2);
  Client client = ConnectTo(*server);

  // Unknown graph id: the registry's open failure is carried typed.
  Result<WireUpdateReply> missing = client.Update(
      Id("nope"), {{EdgeUpdateOp::kReweight, 0, 1, 0.5}});
  EXPECT_FALSE(missing.ok());

  // Invalid batch (inserting an edge K4 already has): rejected
  // atomically, version untouched.
  Result<WireUpdateReply> duplicate = client.Update(
      Id("g1"), {{EdgeUpdateOp::kInsert, 0, 1, 0.5}});
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument)
      << duplicate.status().ToString();

  // Empty batch: a no-op must not bump the version.
  Result<WireUpdateReply> empty = client.Update(Id("g1"), {});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument)
      << empty.status().ToString();

  // The connection survived all three rejections, and g1 still
  // answers at version 1.
  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 3}};
  request.num_samples = 32;
  request.seed = 7;
  Result<QueryResult> result = client.Query(Id("g1"), request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->graph_version, 1u);
  EXPECT_EQ(server->registry().counters().updates, 0u);
}

TEST_P(ServiceBackendTest, PostUpdateResponsesBitIdenticalAtEveryWorkerCount) {
  // Version equivalence through the serving tier: after a mutation
  // batch, responses at 1, 2 and 8 workers are bit-identical to a
  // fresh local session over the equivalent edge list.
  const std::vector<QueryRequest> requests = CoveringRequests();
  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kDelete, 0, 2, 0.0},
      {EdgeUpdateOp::kReweight, 1, 3, 0.125},
      {EdgeUpdateOp::kInsert, 0, 2, 0.875}};

  Result<std::unique_ptr<GraphSession>> v1 = GraphSession::Open(Path("g1"));
  ASSERT_TRUE(v1.ok());
  Result<std::unique_ptr<GraphSession>> v2 = (*v1)->WithUpdates(batch, 2);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();

  for (int workers : {1, 2, 8}) {
    std::unique_ptr<Server> server = StartServer(workers);
    Client client = ConnectTo(*server);
    Result<WireUpdateReply> ack = client.Update(Id("g1"), batch);
    ASSERT_TRUE(ack.ok()) << ack.status().ToString();
    ASSERT_EQ(ack->version, 2u);
    for (const QueryRequest& request : requests) {
      Result<QueryResult> result = client.Query(Id("g1"), request);
      ASSERT_TRUE(result.ok())
          << request.query << " at " << workers << " workers: "
          << result.status().ToString();
      Result<QueryResult> expected = (*v2)->Run(request);
      ASSERT_TRUE(expected.ok());
      EXPECT_TRUE(PayloadEquals(*result, *expected))
          << request.query << " at " << workers << " workers";
      EXPECT_EQ(result->graph_version, 2u);
    }
    server->Stop();
  }
}

TEST_F(ServiceTest, ConcurrentUpdaterWithPipelinedQueriersStaysConsistent) {
  // One updater thread walks g2 through kBatches reweights of the same
  // edge while 8 querier threads pipeline bursts of the same request.
  // Every reply must be bit-identical to the local oracle for the
  // version stamped in that reply -- a served result always corresponds
  // exactly to some committed version, never a torn in-between.
  constexpr std::size_t kBatches = 6;
  constexpr std::size_t kQueriers = 8;
  constexpr std::size_t kBursts = 5;
  constexpr std::size_t kBurstDepth = 8;

  ServerOptions options;
  options.num_workers = 4;
  options.cache.max_entries = 64;
  std::unique_ptr<Server> server = StartServerWith(options);

  QueryRequest request;
  request.query = "reliability";
  request.pairs = {{0, 11}};
  request.num_samples = 48;
  request.seed = 3;

  // oracle[v - 1] answers `request` at graph version v.
  std::vector<QueryResult> oracle;
  std::vector<std::vector<EdgeUpdate>> batches;
  {
    Result<std::unique_ptr<GraphSession>> session =
        GraphSession::Open(Path("g2"));
    ASSERT_TRUE(session.ok());
    std::unique_ptr<GraphSession> current = std::move(*session);
    Result<QueryResult> base = current->Run(request);
    ASSERT_TRUE(base.ok());
    oracle.push_back(*base);
    for (std::size_t b = 0; b < kBatches; ++b) {
      const double p = 0.05 + 0.1 * static_cast<double>(b);
      batches.push_back({{EdgeUpdateOp::kReweight, 0, 1, p}});
      Result<std::unique_ptr<GraphSession>> next =
          current->WithUpdates(batches.back(), current->version() + 1);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      current = std::move(*next);
      Result<QueryResult> result = current->Run(request);
      ASSERT_TRUE(result.ok());
      oracle.push_back(*result);
    }
  }

  std::atomic<bool> updater_ok{true};
  std::thread updater([&] {
    Result<Client> client = Client::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      updater_ok = false;
      return;
    }
    for (std::size_t b = 0; b < kBatches; ++b) {
      Result<WireUpdateReply> ack = client->Update(Id("g2"), batches[b]);
      if (!ack.ok() || ack->version != b + 2) {
        updater_ok = false;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> queriers;
  std::vector<std::string> failures(kQueriers);
  for (std::size_t q = 0; q < kQueriers; ++q) {
    queriers.emplace_back([&, q] {
      Result<Client> client = Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures[q] = client.status().ToString();
        return;
      }
      const std::vector<WireRequest> burst(kBurstDepth,
                                           WireRequest{Id("g2"), request});
      for (std::size_t round = 0; round < kBursts; ++round) {
        std::vector<Result<QueryResult>> replies =
            client->QueryPipelined(burst);
        for (const Result<QueryResult>& reply : replies) {
          if (!reply.ok()) {
            failures[q] = reply.status().ToString();
            return;
          }
          const std::uint64_t v = reply->graph_version;
          if (v < 1 || v > oracle.size()) {
            failures[q] = "impossible version " + std::to_string(v);
            return;
          }
          if (!PayloadEquals(*reply, oracle[v - 1])) {
            failures[q] =
                "payload mismatch at version " + std::to_string(v);
            return;
          }
        }
      }
    });
  }
  updater.join();
  for (std::thread& t : queriers) t.join();
  EXPECT_TRUE(updater_ok.load());
  for (std::size_t q = 0; q < kQueriers; ++q) {
    EXPECT_TRUE(failures[q].empty()) << "querier " << q << ": "
                                     << failures[q];
  }
  // Every batch landed; the final version is visible to a fresh query.
  EXPECT_EQ(server->registry().counters().updates, kBatches);
  Client client = ConnectTo(*server);
  Result<QueryResult> last = client.Query(Id("g2"), request);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->graph_version, kBatches + 1);
  EXPECT_TRUE(PayloadEquals(*last, oracle.back()));
}

}  // namespace
}  // namespace ugs
