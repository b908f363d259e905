// Figure 9: sparsification wall time versus alpha on the Flickr-like and
// Twitter-like datasets for NI, GDB, and EMD (SS is omitted in the paper
// because it takes hours; we include it behind --with-ss only).
//
// Paper shape: GDB/EMD terminate within a minute and scale linearly with
// alpha |E|; NI is more than an order of magnitude slower; times between
// the two datasets differ by roughly their |E| ratio.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "sparsify/sparsifier.h"

namespace {

void Panel(const ugs::UncertainGraph& graph, const ugs::BenchConfig& config,
           const char* dataset, ugs::ThreadPool& pool) {
  const std::vector<double> alphas = ugs::PaperAlphas();
  std::vector<std::string> headers{"method"};
  for (double a : alphas) headers.push_back(ugs::bench::AlphaLabel(a));
  ugs::ReportTable table(headers);
  for (std::string name : {"NI", "GDB", "EMD"}) {
    auto method = ugs::MakeSparsifierByName(name, 0.05, &pool);
    if (!method.ok()) std::abort();
    std::vector<std::string> row{name};
    for (double alpha : alphas) {
      ugs::Rng rng(config.seed + 7);
      ugs::SparsifyOutput out =
          ugs::MustSparsify(**method, graph, alpha, &rng);
      row.push_back(ugs::FormatFixed(out.seconds, 3));
    }
    table.AddRow(std::move(row));
  }
  std::printf("\nsparsification time in seconds (%s):\n", dataset);
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  ugs::BenchConfig config = ugs::ParseBenchArgs(
      argc, argv, "Figure 9: sparsification wall time (real datasets)");
  ugs::ThreadPool pool(config.threads);
  {
    ugs::UncertainGraph flickr = ugs::bench::LoadDataset("Flickr", config);
    Panel(flickr, config, "Flickr-like", pool);
  }
  {
    ugs::UncertainGraph twitter = ugs::bench::LoadDataset("Twitter", config);
    Panel(twitter, config, "Twitter-like", pool);
  }
  std::printf(
      "\npaper Figure 9 shape: GDB fastest, EMD slightly above GDB (the\n"
      "vertex heap keeps E-phase cheap), NI more than an order of\n"
      "magnitude slower; all grow with alpha; dataset times scale with\n"
      "|E|. SS omitted (hours at paper scale).\n");
  return 0;
}
