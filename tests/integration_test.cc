// End-to-end tests asserting the paper's qualitative experimental claims
// on small synthetic stand-ins: the proposed methods (GDB/EMD) must beat
// the deterministic-literature benchmarks (NI/SS) on structural metrics,
// reduce entropy, and reduce Monte-Carlo estimator variance.

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "metrics/discrepancy.h"
#include "metrics/emd_distance.h"
#include "metrics/variance.h"
#include "query/pagerank.h"
#include "query/reliability.h"
#include "query/world_sampler.h"
#include "sparsify/sparsifier.h"

namespace ugs {
namespace {

/// Small Flickr-regime test graph shared by the claims tests. Dense
/// enough (E[d] ~ 7) that sampled worlds sit above the percolation
/// threshold -- the regime of the paper's query experiments.
const UncertainGraph& ClaimsGraph() {
  static const UncertainGraph* graph = [] {
    Rng rng(7);
    ChungLuOptions options;
    options.num_vertices = 300;
    options.avg_degree = 80.0;
    return new UncertainGraph(GenerateChungLu(
        options, ProbabilityDistribution::TruncatedExponential(11.0),
        &rng));
  }();
  return *graph;
}

SparsifyOutput RunMethod(const std::string& name, const UncertainGraph& g,
                   double alpha, std::uint64_t seed) {
  auto method = MakeSparsifierByName(name);
  EXPECT_TRUE(method.ok()) << name;
  Rng rng(seed);
  auto result = (*method)->Sparsify(g, alpha, &rng);
  EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  return std::move(result.value());
}

TEST(PaperClaimsTest, ProposedMethodsBeatBenchmarksOnDegreeMae) {
  // Figure 6(a,c): GDB and EMD outperform NI and SS on MAE of delta_A(u),
  // usually by orders of magnitude.
  const UncertainGraph& g = ClaimsGraph();
  const double alpha = 0.32;
  double gdb = DegreeDiscrepancyMae(g, RunMethod("GDBA", g, alpha, 1).graph);
  double emd = DegreeDiscrepancyMae(g, RunMethod("EMDR-t", g, alpha, 2).graph);
  double ni = DegreeDiscrepancyMae(g, RunMethod("NI", g, alpha, 3).graph);
  double ss = DegreeDiscrepancyMae(g, RunMethod("SS", g, alpha, 4).graph);
  EXPECT_LT(gdb, ni);
  EXPECT_LT(gdb, ss);
  EXPECT_LT(emd, ni);
  EXPECT_LT(emd, ss);
}

TEST(PaperClaimsTest, ProposedMethodsBeatBenchmarksOnCutMae) {
  // Figure 6(b,d): same ordering for the sampled cut discrepancy.
  const UncertainGraph& g = ClaimsGraph();
  const double alpha = 0.32;
  CutSampleOptions cuts;
  cuts.num_k_values = 8;
  cuts.sets_per_k = 16;
  ThreadPool pool;
  auto cut_mae = [&](const std::string& name, std::uint64_t seed) {
    Rng r(11);
    return CutDiscrepancyMae(g, RunMethod(name, g, alpha, seed).graph, cuts,
                             &r, pool);
  };
  double gdb = cut_mae("GDBA", 1);
  double emd = cut_mae("EMDR-t", 2);
  double ni = cut_mae("NI", 3);
  double ss = cut_mae("SS", 4);
  EXPECT_LT(gdb, ni);
  EXPECT_LT(gdb, ss);
  EXPECT_LT(emd, ni);
  EXPECT_LT(emd, ss);
}

TEST(PaperClaimsTest, EntropyAlwaysReduced) {
  // Figure 8: relative entropy below 1 for every method and alpha (fewer
  // edges bound it; GDB/EMD reduce it further).
  const UncertainGraph& g = ClaimsGraph();
  for (std::string name : {"GDBA", "EMDR-t", "NI", "SS"}) {
    for (double alpha : {0.16, 0.32, 0.64}) {
      double rel = RelativeEntropy(g, RunMethod(name, g, alpha, 5).graph);
      EXPECT_LT(rel, 1.0) << name << " alpha " << alpha;
      EXPECT_GE(rel, 0.0);
    }
  }
}

TEST(PaperClaimsTest, ProposedMethodsHaveLowerEntropyThanBenchmarks) {
  const UncertainGraph& g = ClaimsGraph();
  const double alpha = 0.16;
  double emd = RelativeEntropy(g, RunMethod("EMDR-t", g, alpha, 6).graph);
  double gdb = RelativeEntropy(g, RunMethod("GDBA", g, alpha, 7).graph);
  double ss = RelativeEntropy(g, RunMethod("SS", g, alpha, 8).graph);
  EXPECT_LT(gdb, ss);
  EXPECT_LT(emd, ss);
}

TEST(PaperClaimsTest, RelativeEntropyIncreasesWithAlpha) {
  // Figure 8(a,b): more retained edges -> more entropy retained.
  const UncertainGraph& g = ClaimsGraph();
  double h16 = RelativeEntropy(g, RunMethod("EMDR-t", g, 0.16, 9).graph);
  double h64 = RelativeEntropy(g, RunMethod("EMDR-t", g, 0.64, 9).graph);
  EXPECT_LT(h16, h64);
}

TEST(PaperClaimsTest, GdbProbabilityMassCompensatesEliminatedEdges) {
  // Probability redistribution: the sparsified graph's expected edge
  // count stays much closer to the original's than the kept edges' raw
  // mass (the mechanism behind the paper's variance reductions).
  const UncertainGraph& g = ClaimsGraph();
  const double alpha = 0.32;
  SparsifyOutput out = RunMethod("GDBA-t", g, alpha, 10);
  double kept_raw = 0.0;
  for (EdgeId e : out.original_edge_ids) kept_raw += g.edge(e).p;
  double original = g.ExpectedEdgeCount();
  double sparsified = out.graph.ExpectedEdgeCount();
  EXPECT_GT(sparsified, kept_raw);
  EXPECT_LT(std::abs(sparsified - original) / original, 0.25);
}

TEST(PaperClaimsTest, PageRankEmdSmallForProposedMethods) {
  // Figure 10(a,e): D_em of PageRank for GDB/EMD below the benchmarks.
  // Evaluated at alpha = 0.16 where the paper's contrast is sharp, with
  // enough Monte-Carlo samples that the sampling noise floor does not
  // swamp the method gap.
  const UncertainGraph& g = ClaimsGraph();
  const double alpha = 0.16;
  const int kSamples = 120;
  Rng qrng(100);
  const SampleEngine engine;
  McSamples base = McPageRank(g, kSamples, &qrng, {}, engine);
  auto dem = [&](const std::string& name, std::uint64_t seed) {
    Rng r(seed);
    McSamples s = McPageRank(RunMethod(name, g, alpha, seed).graph, kSamples,
                             &r, {}, engine);
    return MeanUnitEmd(base, s);
  };
  double emd_method = dem("EMDR-t", 21);
  double gdb = dem("GDBA", 22);
  double ni = dem("NI", 23);
  EXPECT_LT(emd_method, ni);
  EXPECT_LT(gdb, ni);
}

TEST(PaperClaimsTest, ShortestPathSsWorst) {
  // Section 6.3: "S yields the highest error even on the SP metric,
  // which constitutes its focus", because it performs no probability
  // redistribution.
  const UncertainGraph& g = ClaimsGraph();
  const double alpha = 0.16;
  const int kSamples = 100;
  Rng prng(55);
  std::vector<VertexPair> pairs =
      SampleDistinctPairs(g.num_vertices(), 30, &prng);
  Rng qrng(100);
  const SampleEngine engine;
  McSamples base = McShortestPath(g, pairs, kSamples, &qrng, engine);
  auto dem = [&](const std::string& name, std::uint64_t seed) {
    Rng r(seed);
    McSamples s = McShortestPath(RunMethod(name, g, alpha, seed).graph,
                                 pairs, kSamples, &r, engine);
    return MeanUnitEmd(base, s);
  };
  double ss = dem("SS", 61);
  EXPECT_GT(ss, dem("EMDR-t", 62));
  EXPECT_GT(ss, dem("GDBA", 63));
  EXPECT_GT(ss, dem("NI", 64));
}

TEST(PaperClaimsTest, ReliabilityVarianceReducedByProposedMethods) {
  // Figure 12(c,g): the relative variance of the reliability estimator on
  // GDB/EMD graphs is below 1 (entropy reduction at work).
  const UncertainGraph& g = ClaimsGraph();
  const double alpha = 0.16;
  Rng prng(31);
  std::vector<VertexPair> pairs =
      SampleDistinctPairs(g.num_vertices(), 20, &prng);
  const int kSamplesPerRun = 40;
  const int kRuns = 24;

  const SampleEngine engine;
  auto estimator_for = [&](const UncertainGraph& graph) {
    return [&graph, &pairs, &engine](Rng* r) {
      return McReliability(graph, pairs, kSamplesPerRun, r, engine)
          .UnitMeans();
    };
  };
  Rng v1(32), v2(33);
  double var_original =
      MeanEstimatorVariance(estimator_for(g), kRuns, &v1);
  UncertainGraph emd_graph = RunMethod("EMDR-t", g, alpha, 34).graph;
  double var_emd =
      MeanEstimatorVariance(estimator_for(emd_graph), kRuns, &v2);
  ASSERT_GT(var_original, 0.0);
  EXPECT_LT(var_emd / var_original, 1.0);
}

TEST(PipelineTest, DatasetToQueriesSmoke) {
  // Full pipeline on the bundled dataset stand-ins: generate, sparsify
  // with the representative methods, and answer all four query types.
  UncertainGraph g = MakeTwitterLike(0.15, 77);
  SparsifyOutput out = RunMethod("EMDR-t", g, 0.32, 41);
  Rng rng(42);
  const SampleEngine engine;
  McSamples pr = McPageRank(out.graph, 5, &rng, {}, engine);
  EXPECT_EQ(pr.num_units, g.num_vertices());
  std::vector<VertexPair> pairs =
      SampleDistinctPairs(g.num_vertices(), 5, &rng);
  McSamples sp = McShortestPath(out.graph, pairs, 5, &rng, engine);
  EXPECT_EQ(sp.num_units, 5u);
  McSamples rl = McReliability(out.graph, pairs, 5, &rng, engine);
  EXPECT_EQ(rl.num_units, 5u);
}

}  // namespace
}  // namespace ugs
