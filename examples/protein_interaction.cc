// Protein-interaction scenario: PPI edges carry probabilities from
// error-prone experiments (the paper's biology use case). Community
// structure shows up in clustering coefficients and small cuts, so we
// sparsify with the k = 2 cut-preserving GDB rule (Section 5) and check
// that per-vertex clustering coefficients and sampled cut sizes survive,
// running the clustering query through one GraphSession per graph.

#include <cstdio>
#include <vector>

#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "metrics/discrepancy.h"
#include "metrics/emd_distance.h"
#include "query/graph_session.h"
#include "sparsify/sparsifier.h"

int main() {
  // A dense uncertain interactome: 400 proteins, heavy-tailed degrees,
  // mid-range probabilities typical of high-throughput screens.
  ugs::Rng gen_rng(404);
  ugs::ChungLuOptions gen;
  gen.num_vertices = 400;
  gen.avg_degree = 30.0;
  gen.exponent = 2.4;
  ugs::UncertainGraph ppi = ugs::GenerateChungLu(
      gen, ugs::ProbabilityDistribution::Uniform(0.2, 0.8), &gen_rng);
  std::printf("%s\n", ugs::FormatStats("ppi", ugs::ComputeStats(ppi)).c_str());

  // k = 2 cut rule on a connected backbone (general rule: Equation 14).
  ugs::GdbSparsifierOptions options;
  options.gdb.rule = ugs::CutRule::Cuts(2);
  options.gdb.h = 0.05;
  // E[p] = 0.5 here, so alpha = 0.64 leaves room for redistribution.
  auto method = ugs::MakeGdbSparsifier(options, "GDBA2-t");
  ugs::Rng rng(8);
  auto sparse = method->Sparsify(ppi, /*alpha=*/0.64, &rng);
  if (!sparse.ok()) {
    std::fprintf(stderr, "%s\n", sparse.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n",
              ugs::FormatStats("sparsified",
                               ugs::ComputeStats(sparse->graph)).c_str());

  // Structural check: sampled 2-cuts and degree cuts.
  ugs::CutSampleOptions cuts;
  cuts.num_k_values = 10;
  cuts.sets_per_k = 40;
  ugs::Rng cut_rng(13);
  ugs::ThreadPool pool;  // Hardware concurrency; the MAE is the same at any.
  std::printf("degree discrepancy MAE : %.4f\n",
              ugs::DegreeDiscrepancyMae(ppi, sparse->graph));
  std::printf(
      "cut discrepancy MAE    : %.4f\n",
      ugs::CutDiscrepancyMae(ppi, sparse->graph, cuts, &cut_rng, pool));

  // Query check: Monte-Carlo clustering coefficients per protein,
  // served by a session per graph; the McSamples matrix feeds the
  // distribution metric, the means feed the point comparison.
  ugs::GraphSession full_session(std::move(ppi));
  ugs::GraphSession sparse_session(std::move(sparse->graph));
  ugs::QueryRequest request;
  request.query = "clustering";
  request.num_samples = 60;
  request.seed = 1;
  auto cc_full = full_session.Run(request);
  request.seed = 2;
  auto cc_sparse = sparse_session.Run(request);
  if (!cc_full.ok() || !cc_sparse.ok()) return 1;
  double mean_full = 0.0, mean_sparse = 0.0;
  for (std::size_t v = 0; v < cc_full->means.size(); ++v) {
    mean_full += cc_full->means[v];
    mean_sparse += cc_sparse->means[v];
  }
  mean_full /= static_cast<double>(cc_full->means.size());
  mean_sparse /= static_cast<double>(cc_sparse->means.size());
  std::printf("mean clustering coeff  : %.4f vs %.4f\n", mean_full,
              mean_sparse);
  std::printf("clustering D_em        : %.4f\n",
              ugs::MeanUnitEmd(cc_full->samples, cc_sparse->samples));
  return 0;
}
