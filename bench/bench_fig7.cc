// Figure 7: MAE of the absolute degree discrepancy delta_A(u) and the
// sampled cut discrepancy delta_A(S) versus graph density (15/30/50/90 %
// of the complete graph) on the synthetic datasets, at fixed alpha = 16%.
//
// Paper shape: all methods degrade as density grows (more probability
// mass must be eliminated at fixed alpha); SS grows linearly with |E|
// (no redistribution), NI is smaller, EMD grows most slowly.

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "metrics/discrepancy.h"
#include "sparsify/sparsifier.h"

int main(int argc, char** argv) {
  ugs::BenchConfig config = ugs::ParseBenchArgs(
      argc, argv, "Figure 7: discrepancy MAE vs density (synthetic)");
  ugs::ThreadPool pool(config.threads);
  const double alpha = 0.16;
  const std::vector<int> densities = ugs::PaperDensities();
  const std::vector<std::string> methods = {"NI", "SS", "GDB", "EMD"};

  ugs::CutSampleOptions cuts;
  cuts.num_k_values = config.Samples(12, 5);
  cuts.sets_per_k = config.Samples(32, 8);

  std::vector<std::string> headers{"method"};
  for (int d : densities) headers.push_back(std::to_string(d) + "%");
  ugs::ReportTable degree_table(headers);
  ugs::ReportTable cut_table(headers);

  std::vector<ugs::UncertainGraph> graphs;
  graphs.reserve(densities.size());
  for (int density : densities) {
    graphs.push_back(ugs::bench::LoadDensityGraph(density, config));
  }

  for (const std::string& name : methods) {
    auto method = ugs::MakeSparsifierByName(name, 0.05, &pool);
    if (!method.ok()) return 1;
    std::vector<std::string> degree_row{name};
    std::vector<std::string> cut_row{name};
    for (const ugs::UncertainGraph& graph : graphs) {
      ugs::Rng rng(config.seed + 7);
      ugs::SparsifyOutput out =
          ugs::MustSparsify(**method, graph, alpha, &rng);
      degree_row.push_back(ugs::FormatFixed(
          ugs::DegreeDiscrepancyMae(graph, out.graph,
                                    ugs::DiscrepancyType::kAbsolute),
          3));
      ugs::Rng cut_rng(config.seed + 1000);
      cut_row.push_back(ugs::FormatFixed(
          ugs::CutDiscrepancyMae(graph, out.graph, cuts, &cut_rng, pool), 1));
    }
    degree_table.AddRow(std::move(degree_row));
    cut_table.AddRow(std::move(cut_row));
  }

  std::printf("\n(a) MAE of delta_A(u) vs density (alpha = 16%%):\n");
  degree_table.Print();
  std::printf("\n(b) MAE of delta_A(S) vs density (alpha = 16%%):\n");
  cut_table.Print();
  std::printf(
      "\npaper Figure 7 shape: errors increase with density for all\n"
      "methods; SS worst (linear in |E|), then NI, then GDB; EMD\n"
      "smoothest.\n");
  return 0;
}
