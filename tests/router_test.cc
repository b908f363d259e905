#include "router/router.h"

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "query/graph_session.h"
#include "router/hash_ring.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

/// End-to-end tests of the sharded serving tier: a Router over two
/// in-process Servers on loopback, asserting the tier keeps the serving
/// determinism contract intact -- every reply through the router is
/// bit-identical (PayloadEquals) to GraphSession::Run locally, through
/// ring routing, replica racing, and shard failover alike.
class RouterTest : public ::testing::Test {
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
  std::string Id(const std::string& id) const { return "routertest_" + id; }

  /// One backend shard over the shared graph directory (every shard
  /// serves every graph -- the property any-shard failover rests on).
  std::unique_ptr<Server> StartShard(std::size_t cache_entries = 64) {
    ServerOptions options;
    options.port = 0;
    options.num_workers = 2;
    options.cache.max_entries = cache_entries;
    options.registry.graph_dir = dir_;
    auto shard = std::make_unique<Server>(options);
    Status started = shard->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return shard;
  }

  /// A router fronting `shards`, with the test's routing knobs applied
  /// on top of a loopback-ephemeral frontend.
  std::unique_ptr<Router> StartRouter(
      const std::vector<const Server*>& shards, RouterOptions options) {
    options.host = "127.0.0.1";
    options.port = 0;
    for (const Server* shard : shards) {
      options.shards.push_back({"127.0.0.1", shard->port()});
    }
    auto router = std::make_unique<Router>(std::move(options));
    Status started = router->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return router;
  }

  Client ConnectTo(int port) {
    Result<Client> client = Client::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client.value());
  }

  /// A request per query kind / estimator shape (the same battery
  /// service_test runs directly against one Server).
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

  /// Local reference results: requests[r] on graphs[g] -> [g][r].
  std::vector<std::vector<QueryResult>> LocalReference(
      const std::vector<std::string>& graphs,
      const std::vector<QueryRequest>& requests) {
    std::vector<std::vector<QueryResult>> expected;
    for (const std::string& g : graphs) {
      Result<std::unique_ptr<GraphSession>> session =
          GraphSession::Open(Path(g));
      EXPECT_TRUE(session.ok()) << session.status().ToString();
      std::vector<QueryResult> per_graph;
      for (const QueryRequest& request : requests) {
        Result<QueryResult> result = (*session)->Run(request);
        EXPECT_TRUE(result.ok()) << request.query << ": "
                                 << result.status().ToString();
        per_graph.push_back(*result);
      }
      expected.push_back(std::move(per_graph));
    }
    return expected;
  }

  std::string dir_;
};

TEST_F(RouterTest, EveryQueryKindByteIdenticalThroughRacedRouter) {
  // The acceptance contract: every query kind, through the router over
  // two shards with full replication and verified racing (both replicas
  // answer, the router asserts the replies agree), is bit-identical to a
  // local run. Two passes so the second round exercises the shard-side
  // result caches through the same path.
  const std::vector<QueryRequest> requests = CoveringRequests();
  const std::vector<std::string> graphs = {"g1", "g2", "g3"};
  const std::vector<std::vector<QueryResult>> expected =
      LocalReference(graphs, requests);

  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.replication = 2;
  options.race = 2;
  options.race_verify = true;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  Client client = ConnectTo(router->port());
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      for (std::size_t r = 0; r < requests.size(); ++r) {
        Result<QueryResult> result =
            client.Query(Id(graphs[g]), requests[r]);
        ASSERT_TRUE(result.ok())
            << requests[r].query << " on " << graphs[g] << ": "
            << result.status().ToString();
        EXPECT_TRUE(PayloadEquals(*result, expected[g][r]))
            << requests[r].query << " on " << graphs[g] << ", pass "
            << pass;
      }
    }
  }

  RouterStats stats = router->stats();
  EXPECT_EQ(stats.requests, 2 * graphs.size() * requests.size());
  EXPECT_EQ(stats.errors, 0u);
  // Every request raced two replicas, and verify mode found no
  // disagreement -- the cross-shard determinism contract held.
  EXPECT_EQ(stats.raced, stats.requests);
  EXPECT_EQ(stats.race_mismatches, 0u);
}

TEST_F(RouterTest, KillingAShardMidBatchKeepsRepliesByteIdentical) {
  // The failover contract: stop one of two shards halfway through a
  // batch; every remaining reply must still arrive, still bit-identical
  // to a local run. The health monitor stays on (the production
  // configuration): the dead shard is discovered either by the
  // forwarding path (connect failure -> failover) or by a monitor poll
  // that demotes it first -- the counters separate the two, so the
  // assertion below does not race the monitor.
  const std::vector<QueryRequest> requests = CoveringRequests();
  const std::vector<std::string> graphs = {"g1", "g2", "g3"};
  const std::vector<std::vector<QueryResult>> expected =
      LocalReference(graphs, requests);

  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.replication = 1;  // Pin each graph to its ring primary...
  options.race = 1;         // ...and forward to exactly one shard.
  options.health_interval_ms = 25;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  // Kill the shard the ring names primary for g1 (the router builds the
  // same HashRing(2)), so the post-kill batch is guaranteed to hit the
  // dead shard first and take the failover path.
  HashRing ring(2);
  const std::size_t dead = ring.Primary(Id("g1"));
  Server* doomed = dead == 0 ? shard_a.get() : shard_b.get();

  Client client = ConnectTo(router->port());
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t r = 0; r < requests.size(); ++r) {
      Result<QueryResult> result = client.Query(Id(graphs[g]), requests[r]);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(PayloadEquals(*result, expected[g][r]));
    }
  }

  doomed->Stop();  // SIGKILL-equivalent for an in-process shard.

  for (std::size_t g = 0; g < graphs.size(); ++g) {
    for (std::size_t r = 0; r < requests.size(); ++r) {
      Result<QueryResult> result = client.Query(Id(graphs[g]), requests[r]);
      ASSERT_TRUE(result.ok())
          << requests[r].query << " on " << graphs[g]
          << " after shard kill: " << result.status().ToString();
      EXPECT_TRUE(PayloadEquals(*result, expected[g][r]))
          << requests[r].query << " on " << graphs[g] << " after kill";
    }
  }

  RouterStats stats = router->stats();
  EXPECT_EQ(stats.requests, 2 * graphs.size() * requests.size());
  EXPECT_EQ(stats.errors, 0u);
  // Someone demoted the dead shard: the forwarding path (counted under
  // failovers) or a monitor poll that got there first (counted under
  // monitor_demotions). Either way the demotion is observable -- the
  // sum cannot be zero.
  EXPECT_GE(stats.failovers + stats.monitor_demotions, 1u);
  EXPECT_NE(router->shard_state(dead), ShardState::kUp);
}

TEST_F(RouterTest, HealthMonitorMarksAKilledShardDown) {
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.health_interval_ms = 25;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  shard_b->Stop();
  // Two failed polls mark the shard down; give the 25ms monitor ample
  // slack before declaring the transition missed.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (router->shard_state(1) != ShardState::kDown &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(router->shard_state(1), ShardState::kDown);
  EXPECT_EQ(router->shard_state(0), ShardState::kUp);

  // A down shard is reported, not hidden, in the aggregate.
  const std::string json = router->StatsJson();
  EXPECT_NE(json.find("\"state\":\"down\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"healthy\":1"), std::string::npos) << json;
}

/// Open file descriptors of this process (router, shards and clients
/// all live in it, so both ends of a loopback connection count).
std::size_t OpenFds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST_F(RouterTest, HealthMonitorClosesItsProbes) {
  std::unique_ptr<Server> shard = StartShard();
  RouterOptions options;
  options.health_interval_ms = 5;
  std::unique_ptr<Router> router = StartRouter({shard.get()}, options);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t before = OpenFds();
  // About 60 polls, no traffic. A probe kept open per poll would hold
  // two descriptors each (client end and the shard's accepted end).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::size_t after = OpenFds();
  EXPECT_LE(after, before + 8) << before << " -> " << after;
  EXPECT_EQ(router->shard_state(0), ShardState::kUp);
}

TEST_F(RouterTest, AggregatedStatsMergesShardJsonUnderRouterSchema) {
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.replication = 2;
  options.health_interval_ms = 25;
  options.graph_replication[Id("g1")] = 2;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  Client client = ConnectTo(router->port());
  ASSERT_TRUE(client.Query(Id("g1"), CoveringRequests().front()).ok());

  // The monitor embeds each shard's own stats JSON once it has polled;
  // wait for both to appear rather than racing the first poll.
  std::string json;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    Result<std::string> stats = client.Stats("");
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    json = *stats;
    if (json.find("null") == std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Router-level schema (docs/sharding.md).
  EXPECT_EQ(json.rfind("{\"router\":{", 0), 0u) << json;
  EXPECT_NE(json.find("\"shards\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"healthy\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"replication\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"failovers\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"race_mismatches\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"monitor_demotions\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"uptime_ms\":"), std::string::npos) << json;
  // Per-shard entries carry address, health, and the shard's own stats
  // verb reply verbatim (its {"server":... object, including the new
  // health fields).
  EXPECT_NE(json.find("\"shards\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"addr\":\"127.0.0.1:"), std::string::npos) << json;
  EXPECT_NE(json.find("\"state\":\"up\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"server\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"cache\":{"), std::string::npos) << json;
  EXPECT_NE(json.find("\"registry\":{"), std::string::npos) << json;
  // The router's own telemetry section rides after the shard array; the
  // embedded shard objects carry their own (fleet-wide aggregation for
  // free).
  EXPECT_NE(json.find("\"telemetry\":{\"enabled\":true"), std::string::npos)
      << json;
}

TEST_F(RouterTest, MetricsSubVerbAnswersFromTheRouterItself) {
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, RouterOptions{});

  Client client = ConnectTo(router->port());
  ASSERT_TRUE(client.Query(Id("g1"), CoveringRequests().front()).ok());

  Result<std::string> text = client.Stats(kMetricsStatsVerb);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("ugs_requests_total 1"), std::string::npos) << *text;
  EXPECT_NE(
      text->find("ugs_request_latency_seconds_bucket{kind=\"reliability\""),
      std::string::npos)
      << *text;
  // Per-shard series are labeled by address; exactly one shard carried
  // the forward.
  EXPECT_NE(text->find("ugs_shard_forward_seconds_bucket{shard=\"127.0.0.1:"),
            std::string::npos)
      << *text;
  EXPECT_NE(text->find("ugs_router_failovers_total 0"), std::string::npos)
      << *text;
}

TEST_F(RouterTest, RacedForwardsAreTimed) {
  // Every answered forward lands in ugs_shard_forward_seconds, raced
  // ones included: K raced queries grow the count summed over shards by
  // at least K (the winner of each race; verify mode would add losers).
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.replication = 2;
  options.race = 2;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  Client client = ConnectTo(router->port());
  auto forward_count = [&client] {
    Result<std::string> text = client.Stats(kMetricsStatsVerb);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    const std::string prefix = "ugs_shard_forward_seconds_count{";
    std::uint64_t sum = 0;
    for (std::size_t at = text->find(prefix); at != std::string::npos;
         at = text->find(prefix, at + 1)) {
      sum += std::stoull(text->substr(text->find(' ', at) + 1));
    }
    return sum;
  };
  const std::uint64_t before = forward_count();
  constexpr int kQueries = 6;
  QueryRequest request = CoveringRequests().front();
  for (int i = 0; i < kQueries; ++i) {
    request.seed = 100 + i;
    Result<QueryResult> result = client.Query(Id("g1"), request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(router->stats().raced, static_cast<std::uint64_t>(kQueries));
  EXPECT_GE(forward_count() - before, static_cast<std::uint64_t>(kQueries));
}

TEST_F(RouterTest, TelemetrySectionRecordsRoutedSpans) {
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, RouterOptions{});

  Client client = ConnectTo(router->port());
  ASSERT_TRUE(client.Query(Id("g1"), CoveringRequests().front()).ok());
  Result<std::string> stats = client.Stats("");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The router's own section is the last "telemetry" object; embedded
  // shard replies carry theirs earlier in the document.
  const std::string section =
      stats->substr(stats->rfind("\"telemetry\":{"));
  EXPECT_EQ(section.rfind("\"telemetry\":{\"enabled\":true", 0), 0u)
      << section;
  EXPECT_NE(section.find("\"spans_recorded\":1,"), std::string::npos)
      << section;
  EXPECT_NE(section.find("\"request_ms\":{\"reliability\":{\"count\":1"),
            std::string::npos)
      << section;
  EXPECT_NE(section.find("\"stage_ms\":{\"decode\":"), std::string::npos)
      << section;
}

TEST_F(RouterTest, DisabledTelemetryKeepsCountersButSkipsSpans) {
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.telemetry.enabled = false;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  Client client = ConnectTo(router->port());
  ASSERT_TRUE(client.Query(Id("g1"), CoveringRequests().front()).ok());
  Result<std::string> stats = client.Stats("");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rfind("{\"router\":{", 0), 0u) << *stats;
  EXPECT_NE(stats->find("\"requests\":1"), std::string::npos) << *stats;
  const std::string section =
      stats->substr(stats->rfind("\"telemetry\":{"));
  EXPECT_EQ(section.rfind("\"telemetry\":{\"enabled\":false", 0), 0u)
      << section;
  EXPECT_NE(section.find("\"spans_recorded\":0,"), std::string::npos)
      << section;
  EXPECT_NE(section.find("\"request_ms\":{}"), std::string::npos) << section;
  Result<std::string> text = client.Stats(kMetricsStatsVerb);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("ugs_requests_total 1"), std::string::npos) << *text;
}

TEST_F(RouterTest, GraphDescribeRoutesLikeAQuery) {
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, RouterOptions{});

  Client through_router = ConnectTo(router->port());
  Result<std::string> routed = through_router.Stats(Id("g2"));
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();

  // The describe reply is a pure function of the graph file, so it must
  // match a direct ask of either shard byte-for-byte.
  Client direct = ConnectTo(shard_a->port());
  Result<std::string> local = direct.Stats(Id("g2"));
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(*routed, *local);
}

TEST_F(RouterTest, ShardErrorRepliesAreForwardedAsIs) {
  // A typed per-request error from a shard (unknown graph) is a
  // *successful* forward: the router must hand it back unchanged, not
  // burn through the fleet retrying a deterministic failure.
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, RouterOptions{});

  Client through_router = ConnectTo(router->port());
  Result<QueryResult> routed =
      through_router.Query("no_such_graph", CoveringRequests().front());
  ASSERT_FALSE(routed.ok());

  Client direct = ConnectTo(shard_a->port());
  Result<QueryResult> local =
      direct.Query("no_such_graph", CoveringRequests().front());
  ASSERT_FALSE(local.ok());
  EXPECT_EQ(routed.status().code(), local.status().code());
  EXPECT_EQ(routed.status().message(), local.status().message());

  RouterStats stats = router->stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.failovers, 0u);  // No transport failure happened.
}

TEST_F(RouterTest, UpdateBroadcastsToEveryShardAndRacingStaysVerified) {
  // The broadcast contract: a kUpdate reaches EVERY shard (never
  // raced), so replicas stay version-identical and post-update raced
  // queries still verify clean -- same payload, same version stamp.
  const std::vector<QueryRequest> requests = CoveringRequests();
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.replication = 2;
  options.race = 2;
  options.race_verify = true;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  Client client = ConnectTo(router->port());
  // Warm both shards' caches at version 1 (racing computes on both).
  for (const QueryRequest& request : requests) {
    Result<QueryResult> result = client.Query(Id("g1"), request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->graph_version, 1u);
  }

  const std::vector<EdgeUpdate> batch = {
      {EdgeUpdateOp::kReweight, 0, 1, 0.9},
      {EdgeUpdateOp::kDelete, 2, 3, 0.0}};
  Result<WireUpdateReply> ack = client.Update(Id("g1"), batch);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->version, 2u);
  EXPECT_EQ(ack->applied, 2u);
  // Both shards applied it -- the broadcast skipped neither replica.
  EXPECT_EQ(shard_a->registry().counters().updates, 1u);
  EXPECT_EQ(shard_b->registry().counters().updates, 1u);

  // Post-update answers are bit-identical to a local session over the
  // same mutations, and every one was raced with verify finding no
  // disagreement (RepliesAgree also requires equal version stamps).
  Result<std::unique_ptr<GraphSession>> v1 = GraphSession::Open(Path("g1"));
  ASSERT_TRUE(v1.ok());
  Result<std::unique_ptr<GraphSession>> v2 = (*v1)->WithUpdates(batch, 2);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  for (const QueryRequest& request : requests) {
    Result<QueryResult> result = client.Query(Id("g1"), request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Result<QueryResult> expected = (*v2)->Run(request);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(PayloadEquals(*result, *expected)) << request.query;
    EXPECT_EQ(result->graph_version, 2u) << request.query;
  }

  RouterStats stats = router->stats();
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.update_failures, 0u);
  EXPECT_EQ(stats.race_mismatches, 0u);

  // The new counters surface in the aggregated stats JSON and the
  // exposition (additive fields only).
  Result<std::string> json = client.Stats("");
  ASSERT_TRUE(json.ok());
  EXPECT_NE(json->find("\"updates\":1"), std::string::npos) << *json;
  EXPECT_NE(json->find("\"update_failures\":0"), std::string::npos) << *json;
  Result<std::string> text = client.Stats(kMetricsStatsVerb);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("ugs_router_updates_total 1"), std::string::npos)
      << *text;
  EXPECT_NE(text->find("ugs_router_update_failures_total 0"),
            std::string::npos)
      << *text;
}

TEST_F(RouterTest, UpdateWithADeadShardIsATypedPartialAckError) {
  // Broadcasts never fail over: a dead replica means the fleet can no
  // longer be kept version-identical, so the router reports a typed
  // partial-ack error instead of silently forking the versions.
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.replication = 2;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  shard_b->Stop();
  Client client = ConnectTo(router->port());
  Result<WireUpdateReply> ack = client.Update(
      Id("g1"), {{EdgeUpdateOp::kReweight, 0, 1, 0.9}});
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kIOError)
      << ack.status().ToString();
  EXPECT_NE(ack.status().message().find("acked by 1/2"), std::string::npos)
      << ack.status().ToString();

  RouterStats stats = router->stats();
  EXPECT_EQ(stats.updates, 1u);
  EXPECT_EQ(stats.update_failures, 1u);
}

TEST_F(RouterTest, ShardUpdateRejectionIsForwardedAsIs) {
  // A deterministic shard-side rejection (invalid batch) is the same on
  // every replica: the router forwards the first kError unchanged and
  // stops -- no shard moved, so the fleet stays version-identical.
  std::unique_ptr<Server> shard_a = StartShard();
  std::unique_ptr<Server> shard_b = StartShard();
  RouterOptions options;
  options.replication = 2;
  std::unique_ptr<Router> router =
      StartRouter({shard_a.get(), shard_b.get()}, options);

  Client client = ConnectTo(router->port());
  // g1 is K4: inserting an existing edge is InvalidArgument on any shard.
  Result<WireUpdateReply> ack = client.Update(
      Id("g1"), {{EdgeUpdateOp::kInsert, 0, 1, 0.5}});
  ASSERT_FALSE(ack.ok());
  EXPECT_EQ(ack.status().code(), StatusCode::kInvalidArgument)
      << ack.status().ToString();
  EXPECT_EQ(shard_a->registry().counters().updates, 0u);
  EXPECT_EQ(shard_b->registry().counters().updates, 0u);
  EXPECT_EQ(router->stats().update_failures, 1u);
}

TEST_F(RouterTest, StartRejectsMisconfiguration) {
  {
    Router router(RouterOptions{});  // No shards.
    EXPECT_FALSE(router.Start().ok());
  }
  {
    RouterOptions options;
    options.shards = {{"127.0.0.1", 1}};
    options.race = 0;
    Router router(std::move(options));
    EXPECT_FALSE(router.Start().ok());
  }
  {
    RouterOptions options;
    options.shards = {{"127.0.0.1", 1}};
    options.replication = 0;
    Router router(std::move(options));
    EXPECT_FALSE(router.Start().ok());
  }
}

}  // namespace
}  // namespace ugs
