#include "metrics/discrepancy.h"

#include <cmath>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

using testing_util::PaperFigure2Graph;

UncertainGraph Figure2Backbone() {
  // The Figure 2 backbone as its own graph, seeded with original p.
  return UncertainGraph::FromEdges(
      4, {{0, 3, 0.2}, {1, 3, 0.1}, {2, 3, 0.4}});
}

TEST(DegreeDiscrepancyTest, PaperFigure2Values) {
  std::vector<double> delta = DegreeDiscrepancies(
      PaperFigure2Graph(), Figure2Backbone(), DiscrepancyType::kAbsolute);
  EXPECT_NEAR(delta[0], 0.6, 1e-12);
  EXPECT_NEAR(delta[1], 0.4, 1e-12);
  EXPECT_NEAR(delta[2], 0.2, 1e-12);
  EXPECT_NEAR(delta[3], 0.0, 1e-12);
}

TEST(DegreeDiscrepancyTest, RelativeDividesByOriginalDegree) {
  std::vector<double> delta = DegreeDiscrepancies(
      PaperFigure2Graph(), Figure2Backbone(), DiscrepancyType::kRelative);
  EXPECT_NEAR(delta[0], 0.6 / 0.8, 1e-12);
  EXPECT_NEAR(delta[1], 0.4 / 0.5, 1e-12);
  EXPECT_NEAR(delta[2], 0.2 / 0.6, 1e-12);
  EXPECT_NEAR(delta[3], 0.0, 1e-12);
}

TEST(DegreeDiscrepancyTest, MaeAveragesAbsoluteValues) {
  double mae = DegreeDiscrepancyMae(PaperFigure2Graph(), Figure2Backbone());
  EXPECT_NEAR(mae, (0.6 + 0.4 + 0.2 + 0.0) / 4.0, 1e-12);
}

TEST(DegreeDiscrepancyTest, IdenticalGraphZero) {
  UncertainGraph g = PaperFigure2Graph();
  EXPECT_DOUBLE_EQ(DegreeDiscrepancyMae(g, g), 0.0);
}

TEST(DegreeDiscrepancyTest, ReassignedProbabilitiesCount) {
  // Same edges but boosted probability: negative discrepancy counted by
  // absolute value.
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.3}});
  UncertainGraph s = UncertainGraph::FromEdges(2, {{0, 1, 0.9}});
  EXPECT_NEAR(DegreeDiscrepancyMae(g, s), 0.6, 1e-12);
}

TEST(ExpectedCutSizeTest, SingletonIsExpectedDegree) {
  UncertainGraph g = PaperFigure2Graph();
  for (VertexId u = 0; u < 4; ++u) {
    EXPECT_NEAR(ExpectedCutSize(g, {u}), g.ExpectedDegree(u), 1e-12);
  }
}

TEST(ExpectedCutSizeTest, PairExcludesInternalEdge) {
  UncertainGraph g = PaperFigure2Graph();
  // S = {u1, u2}: cut edges are (u1,u3) 0.2, (u1,u4) 0.2, (u2,u4) 0.1;
  // the internal (u1,u2) does not count.
  EXPECT_NEAR(ExpectedCutSize(g, {0, 1}), 0.5, 1e-12);
}

TEST(ExpectedCutSizeTest, FullSetIsZero) {
  UncertainGraph g = PaperFigure2Graph();
  EXPECT_DOUBLE_EQ(ExpectedCutSize(g, {0, 1, 2, 3}), 0.0);
}

TEST(ExpectedCutSizeTest, ComplementHasSameCut) {
  Rng rng(5);
  UncertainGraph g = GenerateErdosRenyi(
      20, 60, ProbabilityDistribution::Uniform(0.1, 0.9), &rng);
  std::vector<VertexId> set{0, 3, 7, 11};
  std::vector<VertexId> complement;
  for (VertexId v = 0; v < 20; ++v) {
    bool in = false;
    for (VertexId s : set) in |= (s == v);
    if (!in) complement.push_back(v);
  }
  EXPECT_NEAR(ExpectedCutSize(g, set), ExpectedCutSize(g, complement),
              1e-9);
}

TEST(CutDiscrepancyTest, IdenticalGraphsZero) {
  Rng rng(6);
  UncertainGraph g = GenerateErdosRenyi(
      30, 100, ProbabilityDistribution::Uniform(0.1, 0.9), &rng);
  CutSampleOptions options;
  options.num_k_values = 5;
  options.sets_per_k = 10;
  ThreadPool pool;
  EXPECT_NEAR(CutDiscrepancyMae(g, g, options, &rng, pool), 0.0, 1e-12);
}

TEST(CutDiscrepancyTest, MatchesDirectComputation) {
  // Cross-check the incremental delta_A(S) formula against a direct
  // ExpectedCutSize difference on the same sampled sets.
  Rng rng(7);
  UncertainGraph g = GenerateErdosRenyi(
      25, 80, ProbabilityDistribution::Uniform(0.1, 0.9), &rng);
  // Sparsified: keep first 40 edges with halved probabilities.
  std::vector<UncertainEdge> kept;
  for (EdgeId e = 0; e < 40; ++e) {
    UncertainEdge ed = g.edge(e);
    ed.p *= 0.5;
    kept.push_back(ed);
  }
  UncertainGraph s = UncertainGraph::FromEdges(25, std::move(kept));
  // Compare the sampled MAE against a brute-force recomputation with the
  // same sampled sets (reproduce by reusing the same seed).
  CutSampleOptions options;
  options.num_k_values = 4;
  options.sets_per_k = 8;
  Rng sample_rng1(42);
  ThreadPool pool;
  double incremental = CutDiscrepancyMae(g, s, options, &sample_rng1, pool);
  // Reproduce the sampling manually: the metric draws one seed-split base
  // from the caller's rng and gives cut (k, rep) the stream
  // SplitRng(base, k * sets_per_k + rep).
  Rng sample_rng2(42);
  const std::uint64_t base = sample_rng2.Next64();
  const std::size_t n = 25;
  std::vector<std::size_t> ks;
  double k = 1.0;
  double growth = std::pow(static_cast<double>(n - 1),
                           1.0 / (options.num_k_values - 1));
  for (int i = 0; i < options.num_k_values; ++i) {
    auto ki = static_cast<std::size_t>(std::llround(k));
    ki = std::min<std::size_t>(std::max<std::size_t>(ki, 1), n - 1);
    if (ks.empty() || ks.back() != ki) ks.push_back(ki);
    k *= growth;
  }
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t ki = 0; ki < ks.size(); ++ki) {
    for (int rep = 0; rep < options.sets_per_k; ++rep) {
      Rng cut_rng = SplitRng(
          base, ki * static_cast<std::size_t>(options.sets_per_k) +
                    static_cast<std::size_t>(rep));
      auto sample = cut_rng.SampleWithoutReplacement(n, ks[ki]);
      std::vector<VertexId> set;
      for (auto x : sample) set.push_back(static_cast<VertexId>(x));
      total += std::abs(ExpectedCutSize(g, set) - ExpectedCutSize(s, set));
      ++count;
    }
  }
  EXPECT_NEAR(incremental, total / count, 1e-9);
}

TEST(CutDiscrepancyTest, FixedSetSizeMatchesDirect) {
  Rng rng(8);
  UncertainGraph g = GenerateErdosRenyi(
      20, 60, ProbabilityDistribution::Uniform(0.1, 0.9), &rng);
  std::vector<UncertainEdge> kept;
  for (EdgeId e = 0; e < 30; ++e) kept.push_back(g.edge(e));
  UncertainGraph s = UncertainGraph::FromEdges(20, std::move(kept));
  Rng r1(77), r2(77);
  ThreadPool pool;
  double via_metric = CutDiscrepancyMaeForSetSize(g, s, 4, 25, &r1, pool);
  const std::uint64_t base = r2.Next64();
  double direct = 0.0;
  for (int rep = 0; rep < 25; ++rep) {
    Rng cut_rng = SplitRng(base, static_cast<std::uint64_t>(rep));
    auto sample = cut_rng.SampleWithoutReplacement(20, 4);
    std::vector<VertexId> set(sample.begin(), sample.end());
    direct += std::abs(ExpectedCutSize(g, set) - ExpectedCutSize(s, set));
  }
  direct /= 25.0;
  EXPECT_NEAR(via_metric, direct, 1e-9);
}

TEST(CutDiscrepancyTest, SingletonSizeEqualsDegreeMae) {
  // |S| = 1 cut discrepancy is exactly the per-vertex degree
  // discrepancy; with enough samples the MAEs agree approximately.
  Rng rng(9);
  UncertainGraph g = GenerateErdosRenyi(
      15, 40, ProbabilityDistribution::Uniform(0.1, 0.9), &rng);
  std::vector<UncertainEdge> kept;
  for (EdgeId e = 0; e < 20; ++e) kept.push_back(g.edge(e));
  UncertainGraph s = UncertainGraph::FromEdges(15, std::move(kept));
  Rng r(5);
  ThreadPool pool;
  double cut_mae = CutDiscrepancyMaeForSetSize(g, s, 1, 4000, &r, pool);
  double degree_mae = DegreeDiscrepancyMae(g, s);
  EXPECT_NEAR(cut_mae, degree_mae, 0.15 * degree_mae + 1e-9);
}

TEST(RelativeEntropyTest, IdenticalIsOne) {
  UncertainGraph g = PaperFigure2Graph();
  EXPECT_DOUBLE_EQ(RelativeEntropy(g, g), 1.0);
}

TEST(RelativeEntropyTest, PaperFigure2GdbOutput) {
  // Figure 2: entropy drops from 3.85 to 2.60, ratio ~0.675.
  UncertainGraph g = PaperFigure2Graph();
  UncertainGraph out = UncertainGraph::FromEdges(
      4, {{0, 3, 0.5}, {1, 3, 0.2}, {2, 3, 0.3}});
  EXPECT_NEAR(RelativeEntropy(g, out), 2.60 / 3.855, 0.01);
}

TEST(RelativeEntropyTest, DeterministicSparsifierIsZero) {
  UncertainGraph g = PaperFigure2Graph();
  UncertainGraph determinized =
      UncertainGraph::FromEdges(4, {{0, 3, 1.0}, {1, 3, 1.0}});
  EXPECT_DOUBLE_EQ(RelativeEntropy(g, determinized), 0.0);
}

}  // namespace
}  // namespace ugs
