// sparsify_eval workload driver (README.md).
//
// No server: the paper's own algorithms only. Set-up loads the
// Twitter-like graph from its text edge list. An op runs the
// representative sparsifiers GDB, EMD and LP-t at one fixed alpha and
// scores each output's degree-discrepancy MAE. Ops cycle through a few
// fixed RNG streams, so quality_mae -- the mean over the streams -- is
// exact and every op repeats the work of an earlier one.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_io.h"
#include "metrics/discrepancy.h"
#include "perf_common.h"
#include "sparsify/backbone.h"
#include "sparsify/sparsifier.h"
#include "util/random.h"

namespace {

// setup_s is the median of fresh loads: kStartups before the window,
// then one after every kStartupEvery window ops, off the clock. On a
// shared host the CPU's speed drifts over seconds; loads spread over the
// window see the same drift the ops do.
constexpr int kStartups = 5;
constexpr int kStartupEvery = 6;

}  // namespace

int main(int argc, char** argv) {
  const perf::DriverArgs args = perf::ParseDriverArgs(argc, argv);
  const std::string graph_path = args.inputs + "/twitter.txt";
  double alpha = 0.0;
  std::vector<std::uint64_t> streams;
  std::vector<std::string> methods;
  for (const std::string& line : perf::ReadLines(args.inputs + "/params.txt")) {
    std::istringstream in(line);
    std::string key;
    in >> key;
    if (key == "alpha") in >> alpha;
    if (key == "rng_seeds") {
      for (std::uint64_t seed; in >> seed;) streams.push_back(seed);
    }
    if (key == "methods") {
      for (std::string name; in >> name;) methods.push_back(name);
    }
  }
  if (streams.empty() || methods.empty()) perf::Die("malformed params.txt");
  std::vector<std::unique_ptr<ugs::Sparsifier>> sparsifiers;
  for (const std::string& name : methods) {
    sparsifiers.push_back(perf::Must(ugs::MakeSparsifierByName(name), name));
  }
  const int cpu = perf::PinToOneCpu();

  std::vector<double> setup_ms;
  auto load = [&] {
    const auto t0 = perf::Clock::now();
    ugs::UncertainGraph loaded = perf::Must(ugs::LoadEdgeList(graph_path), "load graph");
    setup_ms.push_back(perf::MsBetween(t0, perf::Clock::now()));
    return loaded;
  };
  ugs::UncertainGraph graph;
  for (int i = 0; i < kStartups; ++i) graph = load();
  const std::size_t target = ugs::TargetEdgeCount(graph, alpha);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // MAE per stream and method, from the stream's first pass; every later
  // pass on the stream must reproduce it bit for bit.
  std::vector<std::vector<double>> stream_mae(streams.size());
  std::uint64_t next_op = 0;
  perf::Tracer tracer;

  // Runs the next op; spans are recorded only when `op_span` >= 0.
  auto run_op = [&](std::int64_t op_span, std::int64_t op_id) {
    const std::size_t stream = next_op++ % streams.size();
    bool ok = true;
    std::vector<double> mae;
    for (std::size_t m = 0; m < sparsifiers.size(); ++m) {
      ugs::Rng rng(streams[stream]);
      const std::int64_t id =
          op_span >= 0 ? tracer.Begin("sparsify." + methods[m], op_span, op_id) : -1;
      ugs::Result<ugs::SparsifyOutput> output =
          sparsifiers[m]->Sparsify(graph, alpha, &rng);
      if (id >= 0) tracer.End(id);
      if (!output.ok() || output->graph.num_edges() != target ||
          output->graph.num_vertices() != graph.num_vertices()) {
        ok = false;
        continue;
      }
      const std::int64_t mae_id =
          op_span >= 0 ? tracer.Begin("metrics.degree_mae", op_span, op_id) : -1;
      mae.push_back(ugs::DegreeDiscrepancyMae(graph, output->graph));
      if (mae_id >= 0) tracer.End(mae_id);
      ok = ok && mae.back() > 0.0;
    }
    if (stream_mae[stream].empty() && ok) stream_mae[stream] = mae;
    ok = ok && mae == stream_mae[stream];
    ++attempted;
    if (!ok) ++failed;
  };

  // Warm-up: one pass per stream, which also fixes each stream's MAE.
  for (std::size_t i = 0; i < streams.size(); ++i) run_op(-1, -1);

  const double untraced_budget = args.trace ? args.seconds * 500 : args.seconds * 1000;
  perf::Latencies latencies;
  double window_ms = 0.0;
  std::uint64_t window_ops = 0;
  while (window_ms < untraced_budget) {
    const auto t0 = perf::Clock::now();
    run_op(-1, -1);
    const double ms = perf::MsBetween(t0, perf::Clock::now());
    window_ms += ms;
    latencies.Add(ms, "pass");
    if (++window_ops % kStartupEvery == 0) load();
  }
  const double untraced_throughput = window_ops / (window_ms / 1000.0);

  std::printf("workload sparsify_eval  |V|=%zu |E|=%zu alpha=%g target=%zu "
              "streams=%zu\n",
              graph.num_vertices(), graph.num_edges(), alpha, target,
              streams.size());
  std::printf("threads 1 (in-process, pinned_cpu=%d)\n", cpu);
  perf::ClassShares shares;
  for (const std::string& name : methods) shares.Count(name);
  shares.Print();
  std::printf("every op is one pass of all three sparsifiers (one class)\n");
  double mae_sum = 0.0;
  std::size_t mae_count = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t m = 0; m < stream_mae[s].size(); ++m) {
      std::printf("mae stream=%zu %-6s %.17g\n", s, methods[m].c_str(),
                  stream_mae[s][m]);
      mae_sum += stream_mae[s][m];
      ++mae_count;
    }
  }
  std::printf("%s\n%s\n", latencies.Placement("p50", 0.5).c_str(),
              latencies.Placement("p90", 0.9).c_str());

  const double quality_mae = mae_count > 0 ? mae_sum / mae_count : 0.0;
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
    report.Note("quality_mae", quality_mae, "MAE");
    return report.Finish(attempted, failed);
  }

  // Traced phase: spans around each layer call of the op, plus the
  // backbone alone (it runs inside each -t sparsifier).
  std::vector<double> load_ms;
  for (int i = 0; i < kStartups; ++i) {
    load_ms.push_back(tracer.Time("graph.load_text", -1, -1, [&] {
      perf::Must(ugs::LoadEdgeList(graph_path), "load graph");
    }));
  }
  perf::Latencies traced_latencies;
  double traced_ms = 0.0;
  std::uint64_t traced_ops = 0;
  double backbone_ms = 0.0;
  while (traced_ms < args.seconds * 500) {
    const auto op_id = static_cast<std::int64_t>(traced_ops);
    const std::int64_t op_span = tracer.Begin("op", -1, op_id);
    run_op(op_span, op_id);
    const double ms = tracer.End(op_span);
    traced_ms += ms;
    traced_latencies.Add(ms, "pass");
    ++traced_ops;
    backbone_ms += tracer.Time("sparsify.backbone", -1, op_id, [&] {
      ugs::Rng rng(streams[0]);
      perf::Must(ugs::BuildBackbone(graph, alpha, ugs::BackboneOptions{}, &rng),
                 "backbone");
    });
  }
  tracer.Write(args.spans);
  std::printf("traced %s\n", traced_latencies.Placement("p99", 0.99).c_str());

  auto self = tracer.SelfTimes();
  auto per_op = [&](const std::string& name) { return self[name] / traced_ops; };
  const double op_ms = traced_ms / traced_ops;
  double layer_ms = per_op("metrics.degree_mae");
  for (const std::string& name : methods) layer_ms += per_op("sparsify." + name);
  report.Add("sparsify.backbone_ms", backbone_ms / traced_ops, "ms");
  report.Add("sparsify.gdb_ms", per_op("sparsify.GDB"), "ms");
  report.Add("sparsify.emd_ms", per_op("sparsify.EMD"), "ms");
  report.Add("sparsify.lp_ms", per_op("sparsify.LP-t"), "ms");
  report.Add("sparsify.quality_mae", quality_mae, "MAE");
  report.Add("metrics.degree_mae_ms", per_op("metrics.degree_mae"), "ms");
  report.Add("graph.load_text_ms", perf::Median(load_ms), "ms");
  report.Add("trace.op_ms_per_op", op_ms, "ms");
  report.Add("trace.layer_sum_ms_per_op", layer_ms, "ms");
  report.Add("trace.parts_gap_share", (op_ms - layer_ms) / op_ms, "share");
  report.Add("trace.overhead_share",
             1.0 - (traced_ops / (traced_ms / 1000.0)) / untraced_throughput,
             "share");
  // In process: no server, router, wire, cache, queries or writes.
  report.NotEntered({{"query.sample_ms_per_op", "ms"},
                     {"query.eval_ms_per_op", "ms"},
                     {"query.execute_ms.reliability", "ms"},
                     {"query.execute_ms.shortest-path", "ms"},
                     {"query.execute_ms.pagerank", "ms"},
                     {"query.execute_ms.clustering", "ms"},
                     {"query.worlds_per_op", "count"},
                     {"query.execute_ms_per_miss", "ms"},
                     {"wire.encode_result_ms_per_op", "ms"},
                     {"wire.decode_result_ms_per_op", "ms"},
                     {"wire.request_codec_us_per_op", "us"},
                     {"wire.reply_kb_per_op", "KB"},
                     {"result_cache.hit_share", "share"},
                     {"result_cache.lookup_us", "us"},
                     {"result_cache.insert_us", "us"},
                     {"result_cache.entries_per_mb", "count/MB"},
                     {"result_cache.evictions_per_kop", "count"},
                     {"result_cache.invalidations_per_update", "count"},
                     {"session_registry.apply_updates_ms", "ms"},
                     {"session_registry.open_ms", "ms"},
                     {"session_registry.resident_mb", "MB"},
                     {"graph.apply_updates_ms", "ms"},
                     {"frame_server.gap_ms_per_op", "ms"},
                     {"router.hop_us_per_read", "us"},
                     {"router.broadcast_ms_per_update", "ms"}});
  return report.Finish(attempted, failed);
}
