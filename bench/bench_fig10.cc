// Figure 10: earth mover's distance D_em between the Monte-Carlo result
// distributions on the original and sparsified graphs, for the four
// evaluation queries -- PageRank (PR), shortest-path distance (SP),
// reliability (RL), clustering coefficient (CC) -- versus alpha, on the
// Flickr-like and Twitter-like datasets (8 panels in the paper).
//
// Paper protocol: 500 sampled worlds per graph, CC/PR on all vertices,
// SP/RL on 1000 random pairs. We scale the sample counts down by default
// (printed below) -- raise --scale / lower --quick to trade time for
// resolution.
//
// Paper shape: GDB/EMD below NI/SS almost everywhere, often by a wide
// margin; SS worst even on SP (its own target metric) because it never
// redistributes probability; NI decent on CC only; EMD wins at large
// alpha, GDB preferable at alpha = 8%.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "metrics/emd_distance.h"
#include "query/clustering.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/shortest_path.h"
#include "sparsify/sparsifier.h"

namespace {

struct QueryBaselines {
  ugs::McSamples pr, sp, rl, cc;
  std::vector<ugs::VertexPair> pairs;
};

QueryBaselines EvaluateQueries(const ugs::UncertainGraph& graph,
                               const std::vector<ugs::VertexPair>& pairs,
                               int worlds, std::uint64_t seed,
                               const ugs::SampleEngine& engine) {
  QueryBaselines q;
  q.pairs = pairs;
  ugs::Rng r1(seed + 1), r2(seed + 2), r3(seed + 3), r4(seed + 4);
  q.pr = ugs::McPageRank(graph, worlds, &r1, {}, engine);
  q.sp = ugs::McShortestPath(graph, pairs, worlds, &r2, engine);
  q.rl = ugs::McReliability(graph, pairs, worlds, &r3, engine);
  q.cc = ugs::McClusteringCoefficient(graph, worlds, &r4, engine);
  return q;
}

void Panel(const ugs::UncertainGraph& graph, const ugs::BenchConfig& config,
           const char* dataset, const ugs::SampleEngine& engine) {
  const std::vector<double> alphas = ugs::PaperAlphas();
  const std::vector<std::string> methods = {"NI", "SS", "GDB", "EMD"};
  const int worlds = config.Samples(100, 25);
  const int num_pairs = config.Samples(100, 25);

  ugs::Rng pair_rng(config.seed + 500);
  std::vector<ugs::VertexPair> pairs =
      ugs::SampleDistinctPairs(graph.num_vertices(), num_pairs, &pair_rng);
  std::printf("\n[%s] %d worlds, %d pairs\n", dataset, worlds, num_pairs);
  QueryBaselines base =
      EvaluateQueries(graph, pairs, worlds, config.seed + 900, engine);

  std::vector<std::string> headers{"method/query"};
  for (double a : alphas) headers.push_back(ugs::bench::AlphaLabel(a));
  ugs::ReportTable table(headers);

  for (const std::string& name : methods) {
    auto method = ugs::MakeSparsifierByName(name, 0.05, &engine.pool());
    if (!method.ok()) std::abort();
    std::vector<std::string> pr_row{name + " PR"};
    std::vector<std::string> sp_row{name + " SP"};
    std::vector<std::string> rl_row{name + " RL"};
    std::vector<std::string> cc_row{name + " CC"};
    for (double alpha : alphas) {
      ugs::Rng rng(config.seed + 7);
      ugs::SparsifyOutput out =
          ugs::MustSparsify(**method, graph, alpha, &rng);
      QueryBaselines sparse = EvaluateQueries(out.graph, pairs, worlds,
                                              config.seed + 901, engine);
      pr_row.push_back(ugs::FormatSci(ugs::MeanUnitEmd(base.pr, sparse.pr)));
      sp_row.push_back(ugs::FormatSci(ugs::MeanUnitEmd(base.sp, sparse.sp)));
      rl_row.push_back(ugs::FormatSci(ugs::MeanUnitEmd(base.rl, sparse.rl)));
      cc_row.push_back(ugs::FormatSci(ugs::MeanUnitEmd(base.cc, sparse.cc)));
    }
    table.AddRow(std::move(pr_row));
    table.AddRow(std::move(sp_row));
    table.AddRow(std::move(rl_row));
    table.AddRow(std::move(cc_row));
  }
  std::printf("D_em of PR / SP / RL / CC (%s):\n", dataset);
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  ugs::BenchConfig config = ugs::ParseBenchArgs(
      argc, argv, "Figure 10: D_em of PR/SP/RL/CC (real datasets)");
  const ugs::SampleEngine engine(
      ugs::SampleEngineOptions{.num_threads = config.threads});
  {
    ugs::UncertainGraph flickr = ugs::bench::LoadDataset("Flickr", config);
    Panel(flickr, config, "Flickr-like", engine);
  }
  {
    ugs::UncertainGraph twitter = ugs::bench::LoadDataset("Twitter", config);
    Panel(twitter, config, "Twitter-like", engine);
  }
  std::printf(
      "\npaper Figure 10 shape: GDB/EMD below the benchmarks with few\n"
      "exceptions; SS worst on SP despite being the spanner method; NI\n"
      "good on CC only; EMD wins at high alpha, GDB at alpha = 8%%.\n");
  return 0;
}
