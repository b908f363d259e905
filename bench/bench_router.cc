// Sharded-tier round-trip bench: starts two in-process Servers over a
// temp graph directory and a Router in front of them, fires a fixed
// request set through the router at a ladder of routing configs
// (pinned, replicated, raced, raced+verified), and verifies every
// routed response is bit-identical to a local GraphSession::Run (the
// determinism contract the tier rests on). The direct-to-shard round
// trip is the yardstick: the interesting number is the router hop's
// overhead, config by config. Writes BENCH_router.json so future
// routing PRs (connection pooling, multi-reactor, smarter racing) have
// a trajectory to diff.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "graph/graph_io.h"
#include "query/graph_session.h"
#include "router/router.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "util/timer.h"

namespace {

struct RunResult {
  double wall_ms = 0.0;
  bool identical = true;
};

/// Fires `requests` at `port` across `num_clients` concurrent
/// connections; request i's response is compared against expected[i].
RunResult FireRequests(int port, const std::string& graph_id,
                       const std::vector<ugs::QueryRequest>& requests,
                       const std::vector<ugs::QueryResult>& expected,
                       int num_clients) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> identical{true};
  ugs::Timer timer;
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&] {
      ugs::Result<ugs::Client> client =
          ugs::Client::Connect("127.0.0.1", port);
      if (!client.ok()) {
        identical.store(false);
        return;
      }
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests.size()) break;
        ugs::Result<ugs::QueryResult> result =
            client->Query(graph_id, requests[i]);
        if (!result.ok() || !ugs::PayloadEquals(*result, expected[i])) {
          identical.store(false);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  RunResult run;
  run.wall_ms = timer.ElapsedMillis();
  run.identical = identical.load();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  ugs::BenchConfig config = ugs::ParseBenchArgs(
      argc, argv, "Sharded tier: routed round-trip overhead (ugs_router)");

  char dir_template[] = "/tmp/ugs_bench_router_XXXXXX";
  if (mkdtemp(dir_template) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }
  const std::string graph_dir = dir_template;
  ugs::UncertainGraph graph = ugs::bench::LoadDataset("Twitter", config);
  if (!ugs::SaveEdgeList(graph, graph_dir + "/twitter.txt").ok()) {
    std::fprintf(stderr, "cannot write %s/twitter.txt\n", graph_dir.c_str());
    return 1;
  }

  const int num_samples = config.Samples(100, 16);
  const int num_requests = config.Samples(48, 12);
  std::vector<ugs::QueryRequest> requests;
  requests.reserve(static_cast<std::size_t>(num_requests));
  ugs::Rng pair_rng(config.seed + 11);
  for (int i = 0; i < num_requests; ++i) {
    ugs::QueryRequest request;
    request.query = "reliability";
    request.pairs =
        ugs::SampleDistinctPairs(graph.num_vertices(), 4, &pair_rng);
    request.num_samples = num_samples;
    request.seed = config.seed + static_cast<std::uint64_t>(i);
    requests.push_back(std::move(request));
  }

  // Local reference: the determinism baseline every routed response is
  // held to.
  ugs::GraphSessionOptions local_options;
  local_options.engine.num_threads = config.threads;
  ugs::GraphSession local(graph, local_options);
  std::vector<ugs::QueryResult> expected;
  expected.reserve(requests.size());
  for (const ugs::QueryRequest& request : requests) {
    expected.push_back(ugs::MustQuery(local, request));
  }

  // Two shards over the same directory, reused across every config row
  // (registry and caches stay warm -- the rows compare routing, not
  // graph loads).
  std::vector<std::unique_ptr<ugs::Server>> shards;
  for (int i = 0; i < 2; ++i) {
    ugs::ServerOptions options;
    options.port = 0;
    options.num_workers = 2;
    options.registry.graph_dir = graph_dir;
    options.registry.session.engine.num_threads = config.threads;
    auto shard = std::make_unique<ugs::Server>(options);
    ugs::Status started = shard->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    shards.push_back(std::move(shard));
  }

  // Direct-to-shard yardstick (same warm-up discipline as the rows).
  FireRequests(shards[0]->port(), "twitter", {requests[0]}, {expected[0]},
               1);
  RunResult direct = FireRequests(shards[0]->port(), "twitter", requests,
                                  expected, 2);

  struct ConfigRow {
    const char* name;
    std::size_t replication;
    int race;
    bool verify;
  };
  const ConfigRow rows[] = {
      {"pinned (R=1)", 1, 1, false},
      {"replicated (R=2)", 2, 1, false},
      {"raced (R=2, race=2)", 2, 2, false},
      {"raced+verify", 2, 2, true},
  };

  ugs::BenchJsonWriter json;
  ugs::ReportTable table(
      {"config", "wall ms", "req/s", "vs direct", "identical"});
  bool all_identical = direct.identical;
  for (const ConfigRow& row : rows) {
    ugs::RouterOptions options;
    options.port = 0;
    options.num_workers = 4;
    options.replication = row.replication;
    options.race = row.race;
    options.race_verify = row.verify;
    for (const std::unique_ptr<ugs::Server>& shard : shards) {
      options.shards.push_back({"127.0.0.1", shard->port()});
    }
    ugs::Router router(std::move(options));
    ugs::Status started = router.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    // Warm-up: routes once so the router's connection pool is primed.
    FireRequests(router.port(), "twitter", {requests[0]}, {expected[0]}, 1);
    RunResult run =
        FireRequests(router.port(), "twitter", requests, expected, 2);
    router.Stop();
    all_identical = all_identical && run.identical;

    const double seconds = run.wall_ms / 1e3;
    const double requests_per_sec =
        static_cast<double>(num_requests) / seconds;
    const double vs_direct =
        direct.wall_ms > 0.0 ? run.wall_ms / direct.wall_ms : 1.0;
    table.AddRow({row.name, ugs::FormatFixed(run.wall_ms, 1),
                  ugs::FormatFixed(requests_per_sec, 1),
                  ugs::FormatFixed(vs_direct, 2),
                  run.identical ? "yes" : "NO"});
    json.Add({std::string("bench_router/") + row.name,
              "Twitter",
              4,
              run.wall_ms,
              static_cast<double>(num_requests) * num_samples / seconds,
              {{"requests_per_sec", requests_per_sec},
               {"num_requests", static_cast<double>(num_requests)},
               {"num_samples", static_cast<double>(num_samples)},
               {"direct_ms", direct.wall_ms},
               {"overhead_vs_direct", vs_direct},
               {"replication", static_cast<double>(row.replication)},
               {"race", static_cast<double>(row.race)},
               {"identical_to_local", run.identical ? 1.0 : 0.0}}});
  }
  table.Print();
  std::printf("direct to one shard: %s ms for %d requests\n",
              ugs::FormatFixed(direct.wall_ms, 1).c_str(), num_requests);

  for (std::unique_ptr<ugs::Server>& shard : shards) shard->Stop();
  std::remove((graph_dir + "/twitter.txt").c_str());
  ::rmdir(graph_dir.c_str());

  const std::string out_path = "BENCH_router.json";
  if (!json.WriteFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: a routed response differed from "
                 "the local run\n");
    return 1;
  }
  return 0;
}
