// Figure 11: earth mover's distance D_em of PageRank and shortest-path
// distance versus graph density (synthetic sweep) at alpha = 16%.
//
// Paper shape: proposed methods below the benchmarks everywhere; PR
// error grows with density (mirrors the degree MAE of Figure 7(a)); SP
// error falls with density (denser graphs offer alternative short
// paths); RL is ~0 for everyone on dense graphs (hence not plotted).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "metrics/emd_distance.h"
#include "query/pagerank.h"
#include "query/shortest_path.h"
#include "sparsify/sparsifier.h"

int main(int argc, char** argv) {
  ugs::BenchConfig config = ugs::ParseBenchArgs(
      argc, argv, "Figure 11: D_em of PR and SP vs density (synthetic)");
  const ugs::SampleEngine engine(
      ugs::SampleEngineOptions{.num_threads = config.threads});
  const double alpha = 0.16;
  const std::vector<int> densities = ugs::PaperDensities();
  const std::vector<std::string> methods = {"NI", "SS", "GDB", "EMD"};
  const int worlds = config.Samples(80, 20);
  const int num_pairs = config.Samples(80, 20);

  std::vector<ugs::UncertainGraph> graphs;
  for (int density : densities) {
    graphs.push_back(ugs::bench::LoadDensityGraph(density, config));
  }
  ugs::Rng pair_rng(config.seed + 500);
  std::vector<ugs::VertexPair> pairs = ugs::SampleDistinctPairs(
      graphs[0].num_vertices(), num_pairs, &pair_rng);

  std::vector<std::string> headers{"method"};
  for (int d : densities) headers.push_back(std::to_string(d) + "%");
  ugs::ReportTable pr_table(headers);
  ugs::ReportTable sp_table(headers);

  for (const std::string& name : methods) {
    auto method = ugs::MakeSparsifierByName(name, 0.05, &engine.pool());
    if (!method.ok()) return 1;
    std::vector<std::string> pr_row{name};
    std::vector<std::string> sp_row{name};
    for (const ugs::UncertainGraph& graph : graphs) {
      ugs::Rng b1(config.seed + 1), b2(config.seed + 2);
      ugs::McSamples base_pr = ugs::McPageRank(graph, worlds, &b1, {}, engine);
      ugs::McSamples base_sp =
          ugs::McShortestPath(graph, pairs, worlds, &b2, engine);
      ugs::Rng rng(config.seed + 7);
      ugs::SparsifyOutput out =
          ugs::MustSparsify(**method, graph, alpha, &rng);
      ugs::Rng s1(config.seed + 3), s2(config.seed + 4);
      ugs::McSamples sparse_pr =
          ugs::McPageRank(out.graph, worlds, &s1, {}, engine);
      ugs::McSamples sparse_sp =
          ugs::McShortestPath(out.graph, pairs, worlds, &s2, engine);
      pr_row.push_back(
          ugs::FormatSci(ugs::MeanUnitEmd(base_pr, sparse_pr)));
      sp_row.push_back(
          ugs::FormatSci(ugs::MeanUnitEmd(base_sp, sparse_sp)));
    }
    pr_table.AddRow(std::move(pr_row));
    sp_table.AddRow(std::move(sp_row));
  }

  std::printf("\n(a) D_em of PageRank vs density (alpha = 16%%):\n");
  pr_table.Print();
  std::printf("\n(b) D_em of shortest-path distance vs density:\n");
  sp_table.Print();
  std::printf(
      "\npaper Figure 11 shape: proposed methods below benchmarks; PR\n"
      "error grows with density, SP error shrinks with density.\n");
  return 0;
}
