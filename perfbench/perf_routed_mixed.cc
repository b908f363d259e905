// routed_mixed workload driver (README.md).
//
// A Router in front of two Server shards, result caches on, serving four
// small packed graphs. One closed-loop client runs the generated period
// of ops over and over: reads of a skewed request pool, mostly cache
// hits, and one-edge writes that bump a graph's version and so
// invalidate its cached replies. The window holds whole periods after a
// warm-up, so every count per period -- hits, misses, evictions,
// invalidations -- repeats exactly and only timings carry host noise.

#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "perf_common.h"
#include "query/graph_session.h"
#include "router/hash_ring.h"
#include "router/router.h"
#include "service/client.h"
#include "service/result_cache.h"
#include "service/server.h"
#include "service/session_registry.h"
#include "service/wire.h"

namespace {

constexpr int kShards = 2;
// setup_s is the median of fresh start-ups: kStartups before the window,
// then one after every window period, off the clock. On a shared host
// the CPU's speed drifts over seconds; start-ups spread over the window
// see the same drift the ops do.
constexpr int kStartups = 5;
constexpr int kWarmupPeriods = 4;  // Fills every cache to its budget.
// Per-shard result cache budget: about three periods of inserted
// replies, so stale versions age out while live entries mostly stay.
constexpr std::size_t kCacheBytes = std::size_t{64} << 10;
constexpr double kMiB = 1024.0 * 1024.0;

struct Read {
  std::string graph;
  int index = 0;  ///< Into the request pool.
};

struct Write {
  std::string graph;
  ugs::VertexId u = 0;
  ugs::VertexId v = 0;
  std::array<double, 2> p{};  ///< [0] = altered, [1] = original.
};

struct Op {
  bool is_write = false;
  Read read;
  Write write;
};

ugs::ServerOptions ShardOptions(const std::string& inputs) {
  ugs::ServerOptions options;
  options.num_workers = 1;
  options.cache.max_bytes = kCacheBytes;
  options.registry.graph_dir = inputs;
  options.registry.session.engine.num_threads = 1;
  return options;
}

struct System {
  std::vector<std::unique_ptr<ugs::Server>> shards;
  std::unique_ptr<ugs::Router> router;
  ugs::Client client;

  std::uint64_t CacheHits() const {
    std::uint64_t hits = 0;
    for (const auto& shard : shards) hits += shard->cache().counters().hits;
    return hits;
  }
  ugs::ResultCacheCounters CacheCounters() const {
    ugs::ResultCacheCounters total;
    for (const auto& shard : shards) {
      const ugs::ResultCacheCounters c = shard->cache().counters();
      total.hits += c.hits;
      total.misses += c.misses;
      total.evictions += c.evictions;
      total.invalidations += c.invalidations;
    }
    return total;
  }
};

/// Starts both shards and the router, connects, and opens every graph
/// (on its owning shard, through the router).
System StartSystem(const ugs::ServerOptions& shard_options,
                   const std::vector<std::string>& graphs) {
  System system;
  ugs::RouterOptions router_options;
  router_options.num_workers = 1;
  // No health monitor: with one client it only adds background polls.
  router_options.health_interval_ms = 0;
  for (int i = 0; i < kShards; ++i) {
    system.shards.push_back(std::make_unique<ugs::Server>(shard_options));
    perf::Must(system.shards.back()->Start(), "start shard");
    router_options.shards.push_back({"127.0.0.1", system.shards.back()->port()});
  }
  system.router = std::make_unique<ugs::Router>(router_options);
  perf::Must(system.router->Start(), "start router");
  system.client = perf::Must(
      ugs::Client::Connect("127.0.0.1", system.router->port()), "connect");
  for (const std::string& graph : graphs) {
    perf::Must(system.client.Stats(graph), "open graph");
  }
  return system;
}

}  // namespace

int main(int argc, char** argv) {
  const perf::DriverArgs args = perf::ParseDriverArgs(argc, argv);

  std::vector<std::string> graphs;
  std::vector<ugs::WireRequest> pool;
  for (const std::string& line : perf::ReadLines(args.inputs + "/pool.txt")) {
    std::istringstream in(line);
    ugs::WireRequest request;
    in >> request.graph;
    request.request = perf::ParseRequest(in);
    if (graphs.empty() || graphs.back() != request.graph) {
      graphs.push_back(request.graph);
    }
    pool.push_back(std::move(request));
  }
  std::vector<Op> period;
  for (const std::string& line : perf::ReadLines(args.inputs + "/script.txt")) {
    std::istringstream in(line);
    std::string kind;
    Op op;
    in >> kind;
    if (kind == "W") {
      int g = 0;
      op.is_write = true;
      in >> g >> op.write.u >> op.write.v >> op.write.p[0] >> op.write.p[1];
      op.write.graph = graphs.at(static_cast<std::size_t>(g));
    } else {
      in >> op.read.index;
      op.read.graph = pool.at(static_cast<std::size_t>(op.read.index)).graph;
    }
    if (!in) perf::Die("malformed script line: " + line);
    period.push_back(op);
  }

  const ugs::ServerOptions shard_options = ShardOptions(args.inputs);
  const int cpu = perf::PinToOneCpu();
  // Set-up; the last start-up before the window serves the run.
  std::vector<double> setup_ms;
  auto start_up = [&] {
    const auto t0 = perf::Clock::now();
    System fresh = StartSystem(shard_options, graphs);
    setup_ms.push_back(perf::MsBetween(t0, perf::Clock::now()));
    return fresh;
  };
  System system;
  for (int i = 0; i < kStartups; ++i) {
    system = System{};  // Stops the previous start-up, off the clock.
    system = start_up();
  }

  // Graph state: a graph's content alternates between its original
  // (even write count) and altered (odd) edge probability.
  std::map<std::string, std::uint64_t> version;  // Last acknowledged.
  auto next_update = [&](const Write& write) {
    const std::uint64_t writes_done = version[write.graph] - 1;
    return ugs::EdgeUpdate{ugs::EdgeUpdateOp::kReweight, write.u, write.v,
                           write.p[writes_done % 2]};
  };
  for (const std::string& graph : graphs) version[graph] = 1;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double reply_bytes = 0.0;
  // First reply seen per (graph, content state, pool index); every later
  // reply for the same key must equal it, and after the run each one is
  // checked against a local GraphSession::Run of that content.
  using RepKey = std::tuple<std::string, int, int>;
  std::map<RepKey, std::pair<ugs::QueryResult, std::uint64_t>> representatives;

  struct OpOutcome {
    double ms = 0.0;
    bool hit = false;
    std::string payload;  ///< A read's reply, re-encoded (traced run only).
  };
  // Runs one op through the router, then checks and classifies it off
  // the clock.
  auto run_op = [&](const Op& op) {
    OpOutcome outcome;
    ++attempted;
    if (op.is_write) {
      const ugs::EdgeUpdate update = next_update(op.write);
      const auto t0 = perf::Clock::now();
      auto ack = system.client.Update(op.write.graph, {update});
      outcome.ms = perf::MsBetween(t0, perf::Clock::now());
      const std::uint64_t expected = version[op.write.graph] + 1;
      if (!ack.ok() || ack->version != expected || ack->applied != 1) {
        ++failed;
        if (ack.ok()) version[op.write.graph] = ack->version;
        return outcome;
      }
      version[op.write.graph] = ack->version;
      reply_bytes += static_cast<double>(ugs::EncodeUpdateReply(*ack).size() + 5);
      return outcome;
    }
    const ugs::WireRequest& request = pool[static_cast<std::size_t>(op.read.index)];
    const std::uint64_t hits_before = system.CacheHits();
    const auto t0 = perf::Clock::now();
    auto reply = system.client.Query(request.graph, request.request);
    outcome.ms = perf::MsBetween(t0, perf::Clock::now());
    outcome.hit = system.CacheHits() > hits_before;
    if (!reply.ok() || reply->graph_version < version[request.graph]) {
      ++failed;
      return outcome;
    }
    outcome.payload = ugs::EncodeResult(*reply);
    reply_bytes += static_cast<double>(outcome.payload.size() + 5);
    const RepKey key{request.graph, static_cast<int>((reply->graph_version - 1) % 2),
                     op.read.index};
    auto [it, inserted] = representatives.try_emplace(key, *reply, 1);
    if (!inserted) {
      ++it->second.second;
      if (!ugs::PayloadEquals(*reply, it->second.first)) ++failed;
    }
    return outcome;
  };

  for (int p = 0; p < kWarmupPeriods; ++p) {
    for (const Op& op : period) run_op(op);
  }

  // Untraced window: whole periods.
  const double untraced_ms = args.trace ? args.seconds * 500 : args.seconds * 1000;
  perf::Latencies reads;
  perf::Latencies writes;
  perf::ClassShares shares;
  double window_ms = 0.0;
  std::uint64_t window_ops = 0;
  reply_bytes = 0.0;
  while (window_ms < untraced_ms) {
    for (const Op& op : period) {
      const OpOutcome outcome = run_op(op);
      window_ms += outcome.ms;
      ++window_ops;
      const char* op_class = op.is_write ? "write" : outcome.hit ? "hit" : "miss";
      shares.Count(op_class);
      (op.is_write ? writes : reads).Add(outcome.ms, op_class);
    }
    start_up();  // Stopped at once.
  }
  const double untraced_throughput = window_ops / (window_ms / 1000.0);
  const double window_reply_kb = reply_bytes / 1024.0 / window_ops;

  const ugs::HashRing ring(kShards);
  std::printf("workload routed_mixed  graphs=%zu  pool=%zu  period=%zu ops\n",
              graphs.size(), pool.size(), period.size());
  for (const std::string& graph : graphs) {
    std::printf("graph %s -> shard %zu\n", graph.c_str(), ring.Primary(graph));
  }
  std::printf("threads client=1 router_workers=1 shard_workers=%d "
              "shard_engine=%d shards=%d pinned_cpu=%d\n",
              shard_options.num_workers,
              shard_options.registry.session.engine.num_threads, kShards, cpu);
  shares.Print();
  std::printf("reads: %s\nreads: %s\nwrites: %s\n",
              reads.Placement("p50", 0.5).c_str(),
              reads.Placement("p90", 0.9).c_str(),
              writes.Placement("p50", 0.5).c_str());
  std::printf("%s", reads.ClassSummary().c_str());

  auto check_representatives = [&]() {
    // Local oracle: one session per graph and content state.
    std::map<std::pair<std::string, int>, std::unique_ptr<ugs::GraphSession>>
        oracle;
    for (const Op& op : period) {
      if (!op.is_write) continue;
      auto original = perf::Must(
          ugs::GraphSession::Open(args.inputs + "/" + op.write.graph + ".ugsc",
                                  shard_options.registry.session),
          "oracle open");
      const ugs::EdgeUpdate altered{ugs::EdgeUpdateOp::kReweight, op.write.u,
                                    op.write.v, op.write.p[0]};
      oracle[{op.write.graph, 1}] =
          perf::Must(original->WithUpdates({&altered, 1}, 2), "oracle update");
      oracle[{op.write.graph, 0}] = std::move(original);
    }
    for (const auto& [key, rep] : representatives) {
      const auto& [graph, state, index] = key;
      auto expected = oracle.at({graph, state})->Run(
          pool[static_cast<std::size_t>(index)].request);
      if (!expected.ok() || !ugs::PayloadEquals(rep.first, *expected)) {
        failed += rep.second;
      }
    }
  };

  perf::Report report;
  if (!args.trace) {
    check_representatives();
    std::printf("%s\n", perf::Samples("setup_ms", setup_ms).c_str());
    report.Add("setup_s", perf::Median(setup_ms) / 1000.0, "s");
    report.Add("throughput_ops_s", untraced_throughput, "ops/s");
    report.Add("latency_p50_ms", reads.At(0.5), "ms");
    report.Add("latency_p90_ms", reads.At(0.9), "ms");
    report.Add("success_share",
               static_cast<double>(attempted - failed) / attempted, "share");
    report.Add("peak_rss_mb", perf::PeakRssMb(), "MB");
    report.Note("update_p50_ms", writes.At(0.5), "ms");
    report.Note("reply_kb_per_op", window_reply_kb, "KB");
    return report.Finish(attempted, failed);
  }

  // Traced window: the same periods, with each layer's public functions
  // also called directly on the same inputs, and every read repeated
  // directly against its owning shard.
  perf::Tracer tracer;
  std::vector<double> open_ms;
  for (int i = 0; i < kStartups; ++i) {
    ugs::SessionRegistry registry(shard_options.registry);
    for (const std::string& graph : graphs) {
      open_ms.push_back(tracer.Time("session_registry.open", -1, -1, [&] {
        perf::Must(registry.Acquire(graph), "registry open");
      }));
    }
  }
  // Driver-owned copies of each layer, configured like the shards'.
  ugs::SessionRegistry registry(shard_options.registry);
  std::vector<std::unique_ptr<ugs::ResultCache>> mirrors;
  std::vector<ugs::Client> direct;
  for (int s = 0; s < kShards; ++s) {
    mirrors.push_back(std::make_unique<ugs::ResultCache>(shard_options.cache));
    direct.push_back(perf::Must(
        ugs::Client::Connect("127.0.0.1", system.shards[s]->port()), "connect"));
  }
  // Bring the mirror registry to the shards' graph content. At least
  // two writes, so its graphs are materialized from the mapping like the
  // shards' are; its version numbers are not used.
  for (const Op& op : period) {
    if (!op.is_write) continue;
    const std::uint64_t writes = 2 + (version[op.write.graph] - 1) % 2;
    for (std::uint64_t w = 0; w < writes; ++w) {
      const ugs::EdgeUpdate update{ugs::EdgeUpdateOp::kReweight, op.write.u,
                                   op.write.v, op.write.p[w % 2]};
      perf::Must(registry.ApplyUpdates(op.write.graph, {&update, 1}),
                 "mirror update");
    }
  }
  const perf::SampleReplay sampling(shard_options.registry.session.engine);

  const ugs::ResultCacheCounters before = system.CacheCounters();
  double traced_ms = 0.0;
  double layer_ms = 0.0;
  std::uint64_t traced_ops = 0;
  std::uint64_t traced_reads = 0;
  std::uint64_t traced_hits = 0;
  std::uint64_t traced_misses = 0;
  std::uint64_t traced_writes = 0;
  double execute_ms = 0.0;
  std::map<std::string, double> family_ms;  // The four families, 0 if absent.
  for (const char* family : {"reliability", "shortest-path", "pagerank", "clustering"}) {
    family_ms[family] = 0.0;
  }
  double sample_ms = 0.0;
  double worlds = 0.0;
  double hop_ms = 0.0;
  std::uint64_t hop_samples = 0;
  double direct_gap_ms = 0.0;
  double registry_apply_ms = 0.0;
  double graph_apply_ms = 0.0;
  double broadcast_ms = 0.0;
  perf::Latencies traced_reads_latency;
  while (traced_ms < args.seconds * 500) {
    for (const Op& op : period) {
      const auto op_id = static_cast<std::int64_t>(traced_ops++);
      const std::int64_t op_span = tracer.Begin("op", -1, op_id);
      if (op.is_write) {
        const ugs::EdgeUpdate update = next_update(op.write);
        const std::uint64_t old_version = version[op.write.graph];
        const std::int64_t rt_span = tracer.Begin("client.routed_write", op_span, op_id);
        const OpOutcome outcome = run_op(op);
        tracer.End(rt_span);
        traced_ms += outcome.ms;
        ++traced_writes;
        // The graph layer alone, timed on a copy of the pre-update graph.
        ugs::UncertainGraph copy =
            perf::Must(registry.Acquire(op.write.graph), "mirror acquire")->graph();
        graph_apply_ms += tracer.Time("graph.apply_updates", op_span, op_id, [&] {
          perf::Must(copy.ApplyUpdates({&update, 1}), "graph update");
        });
        const double apply = tracer.Time("session_registry.apply_updates", op_span,
                                         op_id, [&] {
          perf::Must(registry.ApplyUpdates(op.write.graph, {&update, 1}),
                     "mirror update");
        });
        for (const auto& mirror : mirrors) {
          mirror->Invalidate(op.write.graph, old_version);
        }
        registry_apply_ms += apply;
        layer_ms += kShards * apply;
        broadcast_ms += outcome.ms - kShards * apply;
        tracer.End(op_span);
        continue;
      }
      const ugs::WireRequest& request =
          pool[static_cast<std::size_t>(op.read.index)];
      const std::int64_t rt_span = tracer.Begin("client.routed_read", op_span, op_id);
      OpOutcome outcome = run_op(op);
      tracer.End(rt_span);
      traced_ms += outcome.ms;
      ++traced_reads;
      traced_reads_latency.Add(outcome.ms, outcome.hit ? "hit" : "miss");
      (outcome.hit ? traced_hits : traced_misses) += 1;

      double read_layers = tracer.Time("wire.request_codec", op_span, op_id, [&] {
        perf::Must(ugs::DecodeRequest(ugs::EncodeRequest(request)), "request codec");
      });
      const std::size_t shard = ring.Primary(request.graph);
      const std::string key = ugs::ResultCache::Key(
          request.graph, version[request.graph], request.request);
      read_layers += tracer.Time("result_cache.lookup", op_span, op_id,
                                 [&] { mirrors[shard]->Lookup(key); });
      if (!outcome.hit) {
        const auto session =
            perf::Must(registry.Acquire(request.graph), "mirror acquire");
        ugs::QueryResult result;
        const double exec = tracer.Time("query.execute." + request.request.query,
                                        op_span, op_id, [&] {
          result = perf::Must(session->Run(request.request), "session run");
        });
        execute_ms += exec;
        family_ms[request.request.query] += exec;
        read_layers += exec;
        worlds += static_cast<double>(result.samples.num_samples);
        sample_ms += tracer.Time("query.sample", op_span, op_id, [&] {
          sampling.Run(session->graph(), request.request, result);
        });
        std::string encoded;
        read_layers += tracer.Time("wire.encode_result", op_span, op_id,
                                   [&] { encoded = ugs::EncodeResult(result); });
        read_layers += tracer.Time("result_cache.insert", op_span, op_id, [&] {
          mirrors[shard]->Insert(key, std::move(encoded));
        });
      }
      // The client decodes the reply's bytes, replayed or fresh alike.
      read_layers += tracer.Time("wire.decode_result", op_span, op_id, [&] {
        perf::Must(ugs::DecodeResult(outcome.payload), "decode result");
      });
      layer_ms += read_layers;

      // The same request straight to its owning shard: a hit, since the
      // routed read just cached or touched it.
      const double direct_rt = tracer.Time("client.direct_read", op_span, op_id, [&] {
        perf::Must(direct[shard].Query(request.graph, request.request),
                   "direct read");
      });
      if (outcome.hit) {
        hop_ms += outcome.ms - direct_rt;
        ++hop_samples;
        direct_gap_ms += direct_rt - read_layers;
      }
      tracer.End(op_span);
    }
  }
  const ugs::ResultCacheCounters after = system.CacheCounters();
  tracer.Write(args.spans);
  check_representatives();

  auto self = tracer.SelfTimes();
  std::printf("traced reads: %s\n",
              traced_reads_latency.Placement("p99", 0.99).c_str());
  const double op_ms = traced_ms / traced_ops;
  const double ops = static_cast<double>(traced_ops);
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t resident = 0;
  for (const auto& shard : system.shards) {
    entries += shard->cache().entries();
    bytes += shard->cache().bytes();
    resident += shard->registry().resident_bytes();
  }
  // The pool holds reliability requests only; the other families read 0.
  for (const auto& [family, ms] : family_ms) {
    report.Add("query.execute_ms." + family, ms / ops, "ms");
  }
  report.Add("query.sample_ms_per_op", sample_ms / ops, "ms");
  report.Add("query.eval_ms_per_op", (execute_ms - sample_ms) / ops, "ms");
  report.Add("query.worlds_per_op", worlds / ops, "count");
  report.Add("query.execute_ms_per_miss", execute_ms / traced_misses, "ms");
  report.Add("wire.encode_result_ms_per_op", self["wire.encode_result"] / ops, "ms");
  report.Add("wire.decode_result_ms_per_op", self["wire.decode_result"] / ops, "ms");
  report.Add("wire.request_codec_us_per_op",
             self["wire.request_codec"] * 1000.0 / ops, "us");
  report.Add("wire.reply_kb_per_op", window_reply_kb, "KB");
  report.Add("result_cache.hit_share",
             static_cast<double>(traced_hits) / traced_reads, "share");
  report.Add("result_cache.lookup_us",
             self["result_cache.lookup"] * 1000.0 / traced_reads, "us");
  report.Add("result_cache.insert_us",
             self["result_cache.insert"] * 1000.0 / traced_misses, "us");
  report.Add("result_cache.entries_per_mb",
             static_cast<double>(entries) / (static_cast<double>(bytes) / kMiB),
             "count/MB");
  report.Add("result_cache.evictions_per_kop",
             static_cast<double>(after.evictions - before.evictions) * 1000.0 / ops,
             "count");
  report.Add("result_cache.invalidations_per_update",
             static_cast<double>(after.invalidations - before.invalidations) /
                 traced_writes,
             "count");
  report.Add("session_registry.apply_updates_ms", registry_apply_ms / traced_writes,
             "ms");
  report.Add("session_registry.open_ms", perf::Median(open_ms), "ms");
  report.Add("session_registry.resident_mb", static_cast<double>(resident) / kMiB,
             "MB");
  report.Add("graph.apply_updates_ms", graph_apply_ms / traced_writes, "ms");
  report.Add("frame_server.gap_ms_per_op", direct_gap_ms / hop_samples, "ms");
  report.Add("router.hop_us_per_read", hop_ms * 1000.0 / hop_samples, "us");
  report.Add("router.broadcast_ms_per_update", broadcast_ms / traced_writes, "ms");
  report.Add("trace.op_ms_per_op", op_ms, "ms");
  report.Add("trace.layer_sum_ms_per_op", layer_ms / ops, "ms");
  report.Add("trace.parts_gap_share", (op_ms - layer_ms / ops) / op_ms, "share");
  report.Add("trace.overhead_share",
             1.0 - (ops / (traced_ms / 1000.0)) / untraced_throughput, "share");
  // Graphs open from .ugsc files, not text; no sparsifier.
  report.NotEntered({{"graph.load_text_ms", "ms"},
                     {"sparsify.backbone_ms", "ms"},
                     {"sparsify.gdb_ms", "ms"},
                     {"sparsify.emd_ms", "ms"},
                     {"sparsify.lp_ms", "ms"},
                     {"sparsify.quality_mae", "MAE"},
                     {"metrics.degree_mae_ms", "ms"}});
  return report.Finish(attempted, failed);
}
