// serve_miss workload driver (README.md).
//
// One Server, result cache on under a byte budget, serving the
// Twitter-like graph from a text edge list. One closed-loop client; an
// op is one pipelined batch of the paper's four query families, every
// request with a fresh seed, so every request misses the cache and is
// then inserted. Every reply is checked against a local
// GraphSession::Run of the same request, off the clock.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"
#include "perf_common.h"
#include "query/graph_session.h"
#include "service/client.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/session_registry.h"
#include "service/wire.h"

namespace {

constexpr const char* kGraphId = "twitter.txt";
constexpr int kRequestsPerOp = 4;
// setup_s is the median of fresh start-ups: kStartups before the window,
// then one after every kStartupEvery window ops, off the clock. On a
// shared host the CPU's speed drifts over seconds; start-ups spread over
// the window see the same drift the ops do.
constexpr int kStartups = 5;
constexpr int kStartupEvery = 8;
constexpr int kWarmupOps = 10;   // Fills the cache to its byte budget.
// The server runs every request on one engine thread: with this few
// samples per request the engine's default batch of 32 worlds is one
// task anyway. The oracle runs between ops, on three threads in small
// batches (results never depend on thread count or batch size).
constexpr int kServerEngineThreads = 1;
constexpr int kOracleEngineThreads = 3;
constexpr int kOracleBatch = 4;
// Holds about eight ops of replies: the warm-up fills it, and from then
// on every op evicts about as much as it inserts.
constexpr std::size_t kCacheBytes = std::size_t{4} << 20;
constexpr double kMiB = 1024.0 * 1024.0;

ugs::ServerOptions MakeServerOptions(const std::string& inputs) {
  ugs::ServerOptions options;
  options.num_workers = 1;
  options.cache.max_bytes = kCacheBytes;
  options.registry.graph_dir = inputs;
  options.registry.session.engine.num_threads = kServerEngineThreads;
  return options;
}

struct System {
  std::unique_ptr<ugs::Server> server;
  ugs::Client client;
};

/// Starts the server, connects, and opens the served graph.
System StartSystem(const ugs::ServerOptions& options) {
  System system;
  system.server = std::make_unique<ugs::Server>(options);
  perf::Must(system.server->Start(), "start server");
  system.client = perf::Must(
      ugs::Client::Connect("127.0.0.1", system.server->port()), "connect");
  perf::Must(system.client.Stats(kGraphId), "open graph");
  return system;
}

}  // namespace

int main(int argc, char** argv) {
  const perf::DriverArgs args = perf::ParseDriverArgs(argc, argv);
  const std::string graph_path = args.inputs + "/" + kGraphId;
  std::vector<std::vector<ugs::WireRequest>> ops;
  {
    const std::vector<std::string> lines = perf::ReadLines(args.inputs + "/ops.txt");
    for (std::size_t i = 0; i + kRequestsPerOp <= lines.size();
         i += kRequestsPerOp) {
      std::vector<ugs::WireRequest> batch;
      for (int r = 0; r < kRequestsPerOp; ++r) {
        std::istringstream in(lines[i + static_cast<std::size_t>(r)]);
        batch.push_back({kGraphId, perf::ParseRequest(in)});
      }
      ops.push_back(std::move(batch));
    }
  }
  const ugs::ServerOptions options = MakeServerOptions(args.inputs);

  // The oracle's pool threads are created before pinning, so they may
  // use the other CPUs; everything created after runs on one.
  ugs::GraphSessionOptions oracle_options;
  oracle_options.engine.num_threads = kOracleEngineThreads;
  oracle_options.engine.batch_size = kOracleBatch;
  const auto oracle = perf::Must(
      ugs::GraphSession::Open(graph_path, oracle_options), "oracle open");
  const int cpu = perf::PinToOneCpu();

  // Set-up; the last start-up before the window serves the run.
  std::vector<double> setup_ms;
  auto start_up = [&] {
    const auto t0 = perf::Clock::now();
    System fresh = StartSystem(options);
    setup_ms.push_back(perf::MsBetween(t0, perf::Clock::now()));
    return fresh;
  };
  System system;
  for (int i = 0; i < kStartups; ++i) {
    system = System{};  // Stops the previous start-up, off the clock.
    system = start_up();
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t next_op = 0;
  double reply_bytes = 0.0;

  // Checks one op's replies against `expected` (or the oracle), off the
  // clock.
  auto check_op = [&](const std::vector<ugs::WireRequest>& batch,
                      const std::vector<ugs::Result<ugs::QueryResult>>& replies,
                      const std::vector<ugs::QueryResult>* expected) {
    bool ok = replies.size() == batch.size();
    for (std::size_t r = 0; ok && r < batch.size(); ++r) {
      if (!replies[r].ok() || replies[r]->graph_version != 1) {
        ok = false;
        break;
      }
      reply_bytes += static_cast<double>(ugs::EncodeResult(*replies[r]).size() + 5);
      if (expected != nullptr) {
        ok = ugs::PayloadEquals(*replies[r], (*expected)[r]);
      } else {
        ugs::Result<ugs::QueryResult> local = oracle->Run(batch[r].request);
        ok = local.ok() && ugs::PayloadEquals(*replies[r], *local);
      }
    }
    ++attempted;
    if (!ok) ++failed;
  };
  auto next_batch = [&]() -> const std::vector<ugs::WireRequest>& {
    // The generated script is far longer than a run; wrapping around
    // still misses, because the cache evicted those entries long ago.
    return ops[next_op++ % ops.size()];
  };

  for (int i = 0; i < kWarmupOps; ++i) {
    const auto& batch = next_batch();
    check_op(batch, system.client.QueryPipelined(batch), nullptr);
  }

  // Untraced window: op time is the pipelined round trip alone.
  const double untraced_ms = args.trace ? args.seconds * 500 : args.seconds * 1000;
  perf::Latencies latencies;
  double window_ms = 0.0;
  std::uint64_t window_ops = 0;
  reply_bytes = 0.0;
  while (window_ms < untraced_ms) {
    const auto& batch = next_batch();
    const auto t0 = perf::Clock::now();
    auto replies = system.client.QueryPipelined(batch);
    const double ms = perf::MsBetween(t0, perf::Clock::now());
    window_ms += ms;
    latencies.Add(ms, "batch");
    check_op(batch, replies, nullptr);
    if (++window_ops % kStartupEvery == 0) start_up();  // Stopped at once.
  }
  const double untraced_throughput = window_ops / (window_ms / 1000.0);
  const double window_reply_kb = reply_bytes / 1024.0 / window_ops;

  std::printf("workload serve_miss  graph=%s  requests/op=%d  samples=%d\n",
              kGraphId, kRequestsPerOp, ops[0][0].request.num_samples);
  std::printf("threads client=1 server_workers=%d server_engine=%d "
              "pinned_cpu=%d oracle_engine=%d (oracle runs off the clock)\n",
              options.num_workers, kServerEngineThreads, cpu,
              kOracleEngineThreads);
  perf::ClassShares shares;
  for (const auto& request : ops[0]) shares.Count(request.request.query);
  shares.Print();
  std::printf("every op is one batch of all four families (one class)\n");
  std::printf("%s\n%s\n", latencies.Placement("p50", 0.5).c_str(),
              latencies.Placement("p90", 0.9).c_str());

  perf::Report report;
  if (!args.trace) {
    std::printf("%s\n", perf::Samples("setup_ms", setup_ms).c_str());
    report.Add("setup_s", perf::Median(setup_ms) / 1000.0, "s");
    report.Add("throughput_ops_s", untraced_throughput, "ops/s");
    report.Add("latency_p50_ms", latencies.At(0.5), "ms");
    report.Add("latency_p90_ms", latencies.At(0.9), "ms");
    report.Add("success_share",
               static_cast<double>(attempted - failed) / attempted, "share");
    report.Add("peak_rss_mb", perf::PeakRssMb(), "MB");
    report.Note("reply_kb_per_op", window_reply_kb, "KB");
    return report.Finish(attempted, failed);
  }

  // Traced window: the same op sequence, with each layer's public
  // functions also called directly on the same inputs.
  perf::Tracer tracer;
  std::vector<double> open_ms;
  std::vector<double> load_ms;
  for (int i = 0; i < kStartups; ++i) {
    ugs::SessionRegistry registry(options.registry);
    open_ms.push_back(tracer.Time("session_registry.open", -1, -1, [&] {
      perf::Must(registry.Acquire(kGraphId), "registry open");
    }));
    load_ms.push_back(tracer.Time("graph.load_text", -1, -1, [&] {
      perf::Must(ugs::LoadEdgeList(graph_path), "load graph");
    }));
  }
  const auto session = perf::Must(
      ugs::GraphSession::Open(graph_path, options.registry.session), "session");
  ugs::ResultCache mirror(options.cache);
  const perf::SampleReplay sampling(options.registry.session.engine);

  perf::Latencies traced_latencies;
  const ugs::ResultCacheCounters before = system.server->cache().counters();
  double traced_ms = 0.0;
  double layer_ms = 0.0;
  double worlds = 0.0;
  std::uint64_t traced_ops = 0;
  std::map<std::string, double> execute_ms;
  double sample_ms = 0.0;
  while (traced_ms < args.seconds * 500) {
    const auto& batch = next_batch();
    const auto op = static_cast<std::int64_t>(traced_ops);
    const std::int64_t op_span = tracer.Begin("op", -1, op);
    std::vector<ugs::Result<ugs::QueryResult>> replies;
    const double rt = tracer.Time("client.pipelined_batch", op_span, op, [&] {
      replies = system.client.QueryPipelined(batch);
    });
    std::vector<ugs::QueryResult> expected;
    for (const ugs::WireRequest& wire : batch) {
      const ugs::QueryRequest& request = wire.request;
      layer_ms += tracer.Time("wire.request_codec", op_span, op, [&] {
        perf::Must(ugs::DecodeRequest(ugs::EncodeRequest(wire)), "request codec");
      });
      const std::string key = ugs::ResultCache::Key(wire.graph, 1, request);
      layer_ms += tracer.Time("result_cache.lookup", op_span, op,
                              [&] { mirror.Lookup(key); });
      ugs::QueryResult result;
      const double exec = tracer.Time("query.execute." + request.query, op_span,
                                      op, [&] {
        result = perf::Must(session->Run(request), "session run");
      });
      layer_ms += exec;
      execute_ms[request.query] += exec;
      worlds += static_cast<double>(result.samples.num_samples);
      sample_ms += tracer.Time("query.sample", op_span, op, [&] {
        sampling.Run(session->graph(), request, result);
      });
      std::string payload;
      layer_ms += tracer.Time("wire.encode_result", op_span, op,
                              [&] { payload = ugs::EncodeResult(result); });
      layer_ms += tracer.Time("result_cache.insert", op_span, op,
                              [&] { mirror.Insert(key, payload); });
      layer_ms += tracer.Time("wire.decode_result", op_span, op, [&] {
        perf::Must(ugs::DecodeResult(payload), "decode result");
      });
      expected.push_back(std::move(result));
    }
    check_op(batch, replies, &expected);
    tracer.End(op_span);
    traced_ms += rt;
    traced_latencies.Add(rt, "batch");
    ++traced_ops;
  }
  const ugs::ResultCacheCounters after = system.server->cache().counters();
  tracer.Write(args.spans);

  auto self = tracer.SelfTimes();
  auto per_op = [&](const std::string& name) { return self[name] / traced_ops; };
  std::printf("traced %s\n", traced_latencies.Placement("p99", 0.99).c_str());
  const double op_ms = traced_ms / traced_ops;
  const double lookups = static_cast<double>(
      (after.hits - before.hits) + (after.misses - before.misses));
  const ugs::ResultCache& cache = system.server->cache();
  for (const auto& [family, ms] : execute_ms) {
    report.Add("query.execute_ms." + family, ms / traced_ops, "ms");
  }
  double execute_total = 0.0;
  for (const auto& [family, ms] : execute_ms) execute_total += ms;
  report.Add("query.sample_ms_per_op", sample_ms / traced_ops, "ms");
  report.Add("query.eval_ms_per_op", (execute_total - sample_ms) / traced_ops,
             "ms");
  report.Add("query.worlds_per_op", worlds / traced_ops, "count");
  report.Add("query.execute_ms_per_miss",
             execute_total / (traced_ops * kRequestsPerOp), "ms");
  report.Add("wire.encode_result_ms_per_op", per_op("wire.encode_result"), "ms");
  report.Add("wire.decode_result_ms_per_op", per_op("wire.decode_result"), "ms");
  report.Add("wire.request_codec_us_per_op",
             per_op("wire.request_codec") * 1000.0, "us");
  report.Add("wire.reply_kb_per_op", window_reply_kb, "KB");
  report.Add("result_cache.hit_share",
             static_cast<double>(after.hits - before.hits) / lookups, "share");
  report.Add("result_cache.lookup_us",
             per_op("result_cache.lookup") * 1000.0 / kRequestsPerOp, "us");
  report.Add("result_cache.insert_us",
             per_op("result_cache.insert") * 1000.0 / kRequestsPerOp, "us");
  report.Add("result_cache.entries_per_mb",
             static_cast<double>(cache.entries()) /
                 (static_cast<double>(cache.bytes()) / kMiB),
             "count/MB");
  report.Add("result_cache.evictions_per_kop",
             static_cast<double>(after.evictions - before.evictions) * 1000.0 /
                 traced_ops,
             "count");
  report.Add("session_registry.open_ms", perf::Median(open_ms), "ms");
  report.Add("session_registry.resident_mb",
             static_cast<double>(system.server->registry().resident_bytes()) / kMiB,
             "MB");
  report.Add("graph.load_text_ms", perf::Median(load_ms), "ms");
  report.Add("frame_server.gap_ms_per_op", op_ms - layer_ms / traced_ops, "ms");
  report.Add("trace.op_ms_per_op", op_ms, "ms");
  report.Add("trace.layer_sum_ms_per_op", layer_ms / traced_ops, "ms");
  report.Add("trace.parts_gap_share", (op_ms - layer_ms / traced_ops) / op_ms,
             "share");
  report.Add("trace.overhead_share",
             1.0 - (traced_ops / (traced_ms / 1000.0)) / untraced_throughput,
             "share");
  // No writes, no router, no sparsifier.
  report.NotEntered({{"result_cache.invalidations_per_update", "count"},
                     {"session_registry.apply_updates_ms", "ms"},
                     {"graph.apply_updates_ms", "ms"},
                     {"router.hop_us_per_read", "us"},
                     {"router.broadcast_ms_per_update", "ms"},
                     {"sparsify.backbone_ms", "ms"},
                     {"sparsify.gdb_ms", "ms"},
                     {"sparsify.emd_ms", "ms"},
                     {"sparsify.lp_ms", "ms"},
                     {"sparsify.quality_mae", "MAE"},
                     {"metrics.degree_mae_ms", "ms"}});
  return report.Finish(attempted, failed);
}
