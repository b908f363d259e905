// Table 2: mean absolute error of the absolute degree discrepancy
// delta_A(u) on the reduced Flickr testbed, for all twelve variants of
// Section 6.1 (LP / GDB / EMD x absolute/relative x random/-t backbones,
// plus the k = 2 and k = n GDB rules) across the alpha sweep.
//
// Paper shape to reproduce: GDBAn is orders of magnitude worse than all
// others; the -t (spanning backbone) variants win for alpha >= 16%;
// EMDR-t is the best overall; LP is matched closely by GDB/EMD at a
// fraction of its cost.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "metrics/discrepancy.h"
#include "sparsify/sparsifier.h"

int main(int argc, char** argv) {
  ugs::BenchConfig config = ugs::ParseBenchArgs(
      argc, argv,
      "Table 2: MAE of absolute degree discrepancy (Flickr reduced)");
  ugs::UncertainGraph graph = ugs::bench::LoadDataset("FlickrReduced",
                                                      config);

  const std::vector<std::string> variants = {
      "LP",     "GDBA",   "GDBR",   "GDBA2",  "GDBAn",  "EMDA",
      "EMDR",   "LP-t",   "GDBA-t", "GDBR-t", "EMDA-t", "EMDR-t"};
  const std::vector<double> alphas = ugs::PaperAlphas();

  std::vector<std::string> headers{"variant"};
  for (double a : alphas) headers.push_back(ugs::bench::AlphaLabel(a));
  ugs::ReportTable table(headers);
  // What each run cost: GDB/EMD's optimizer counts (zero for LP) and time.
  ugs::ReportTable cost({"variant", "alpha", "iterations", "sweeps", "swaps",
                         "converged", "final D1", "seconds"});

  for (const std::string& variant : variants) {
    auto method = ugs::MakeSparsifierByName(variant);
    if (!method.ok()) {
      std::fprintf(stderr, "%s\n", method.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> row{variant};
    for (double alpha : alphas) {
      ugs::Rng rng(config.seed + 7);
      ugs::SparsifyOutput out =
          ugs::MustSparsify(**method, graph, alpha, &rng);
      row.push_back(ugs::FormatSci(ugs::DegreeDiscrepancyMae(
          graph, out.graph, ugs::DiscrepancyType::kAbsolute)));
      cost.AddRow({variant, ugs::bench::AlphaLabel(alpha),
                   std::to_string(out.iterations), std::to_string(out.sweeps),
                   std::to_string(out.swaps), out.converged ? "yes" : "no",
                   ugs::FormatSci(out.final_objective),
                   ugs::FormatFixed(out.seconds, 3)});
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\ncost per run:\n");
  cost.Print();

  std::printf(
      "\npaper Table 2 shape: GDBAn worst by orders of magnitude; -t\n"
      "variants dominate for alpha >= 16%%; EMDR-t best overall; plain\n"
      "backbones preferable at alpha = 8%% (spanning forests overload\n"
      "low-degree vertices there).\n");
  return 0;
}
