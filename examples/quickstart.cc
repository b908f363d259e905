// Quickstart for the ugs library.
//
// Part 1 reproduces the paper's running example (Figure 1): exact
// possible-world evaluation of Pr[G connected] on a 4-vertex uncertain
// graph, against Monte-Carlo estimation -- both expressed as the same
// "connectivity" request through the unified Query API, switching only
// the estimator.
//
// Part 2 is the real workflow: take a mid-size uncertain social graph,
// sparsify it to 30% of its edges with EMD (the representative method),
// and check that structure (expected degrees), entropy, and a pairwise
// reliability query all survive -- the query served by a GraphSession
// per graph.

#include <cstdio>
#include <vector>

#include "gen/generators.h"
#include "graph/graph_stats.h"
#include "graph/uncertain_graph.h"
#include "metrics/discrepancy.h"
#include "query/graph_session.h"
#include "sparsify/sparsifier.h"
#include "util/random.h"

namespace {

int Fail(const ugs::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main() {
  // ---- Part 1: the paper's Figure 1 graph, exactly. ----
  std::vector<ugs::UncertainEdge> edges;
  for (ugs::VertexId u = 0; u < 4; ++u) {
    for (ugs::VertexId v = u + 1; v < 4; ++v) edges.push_back({u, v, 0.3});
  }
  auto k4_graph = ugs::UncertainGraph::Build(4, std::move(edges));
  if (!k4_graph.ok()) return Fail(k4_graph.status());
  ugs::GraphSession k4(std::move(k4_graph).value());

  // One request, two estimators: full 2^|E| enumeration versus plain
  // Monte-Carlo over 20000 possible worlds.
  ugs::QueryRequest connectivity;
  connectivity.query = "connectivity";
  connectivity.estimator = ugs::Estimator::kExact;
  auto exact = k4.Run(connectivity);
  if (!exact.ok()) return Fail(exact.status());
  connectivity.estimator = ugs::Estimator::kSampled;
  connectivity.num_samples = 20000;
  connectivity.seed = 1;
  auto sampled = k4.Run(connectivity);
  if (!sampled.ok()) return Fail(sampled.status());
  std::printf("Figure 1(a): K4 with p = 0.3 on every edge\n");
  std::printf("  Pr[connected] exact       : %.4f (paper: 0.219)\n",
              exact->scalar);
  std::printf("  Pr[connected] Monte-Carlo : %.4f (20000 worlds)\n\n",
              sampled->scalar);

  // ---- Part 2: sparsify a realistic uncertain graph. ----
  // Low edge probabilities (E[p] ~ 0.17) as in the paper's datasets;
  // note alpha must stay above E[p] or no probability assignment can
  // carry the expected-degree mass (paper Section 6.1's alpha = 8%
  // anomaly).
  ugs::Rng gen_rng(7);
  ugs::ChungLuOptions gen;
  gen.num_vertices = 400;
  gen.avg_degree = 40.0;
  ugs::UncertainGraph graph = ugs::GenerateChungLu(
      gen, ugs::ProbabilityDistribution::Uniform(0.05, 0.3), &gen_rng);
  std::printf("%s\n",
              ugs::FormatStats("original", ugs::ComputeStats(graph)).c_str());

  // "EMD" is the representative variant EMD^R-t of the paper (Section
  // 6.1): connected backbone + expectation-maximization refinement.
  auto method = ugs::MakeSparsifierByName("EMD");
  if (!method.ok()) return Fail(method.status());
  ugs::Rng rng(42);
  auto sparse = (*method)->Sparsify(graph, /*alpha=*/0.3, &rng);
  if (!sparse.ok()) return Fail(sparse.status());
  std::printf("%s\n",
              ugs::FormatStats("sparsified",
                               ugs::ComputeStats(sparse->graph)).c_str());

  std::printf("\nstructure and entropy:\n");
  std::printf("  degree discrepancy MAE : %.5f\n",
              ugs::DegreeDiscrepancyMae(graph, sparse->graph));
  std::printf("  relative entropy       : %.3f (lower = cheaper MC)\n",
              ugs::RelativeEntropy(graph, sparse->graph));

  // Same query, both graphs: one session per graph, one request.
  ugs::Rng pair_rng(9);
  ugs::QueryRequest reliability;
  reliability.query = "reliability";
  reliability.pairs =
      ugs::SampleDistinctPairs(graph.num_vertices(), 5, &pair_rng);
  reliability.num_samples = 3000;
  ugs::GraphSession full_session(std::move(graph));
  ugs::GraphSession sparse_session(std::move(sparse->graph));
  reliability.seed = 11;
  auto rel_orig = full_session.Run(reliability);
  if (!rel_orig.ok()) return Fail(rel_orig.status());
  reliability.seed = 12;
  auto rel_sparse = sparse_session.Run(reliability);
  if (!rel_sparse.ok()) return Fail(rel_sparse.status());
  std::printf("\nreliability Pr[s ~ t] (original vs sparsified):\n");
  for (std::size_t i = 0; i < reliability.pairs.size(); ++i) {
    std::printf("  v%-4u -> v%-4u : %.3f vs %.3f\n", reliability.pairs[i].s,
                reliability.pairs[i].t, rel_orig->means[i],
                rel_sparse->means[i]);
  }
  return 0;
}
