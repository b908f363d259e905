#include "sparsify/emd.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "sparsify/backbone.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

using testing_util::PaperFigure2Backbone;
using testing_util::PaperFigure2Graph;

constexpr DiscrepancyType kAbs = DiscrepancyType::kAbsolute;

TEST(EmdPrimitivesTest, CandidateProbabilityIsTheFullStep) {
  UncertainGraph g = PaperFigure2Graph();
  SparseState state(g, PaperFigure2Backbone());
  state.RemoveEdge(2);  // Remove (u1,u4): deltas u1 = 0.8, u4 = 0.2.
  // Candidate (u1,u2): step = (0.8 + 0.4)/2 = 0.6.
  EXPECT_NEAR(CandidateProbability(state, 0, kAbs), 0.6, 1e-12);
  // Candidate (u1,u4) itself: step = (0.8 + 0.2)/2 = 0.5.
  EXPECT_NEAR(CandidateProbability(state, 2, kAbs), 0.5, 1e-12);
  // Candidate (u1,u3): step = (0.8 + 0.2)/2 = 0.5.
  EXPECT_NEAR(CandidateProbability(state, 1, kAbs), 0.5, 1e-12);
}

TEST(EmdPrimitivesTest, CandidateProbabilityClampsTheStep) {
  // An empty backbone leaves every delta at the full expected degree:
  // on K4 at p = 0.9, (0,1) steps (2.7 + 2.7) / 2 = 2.7, clamped to 1.
  UncertainGraph dense = testing_util::CompleteK4(0.9);
  SparseState full(dense, {});
  EXPECT_EQ(CandidateProbability(full, 0, kAbs), 1.0);
  EXPECT_EQ(CandidateProbability(full, 0, DiscrepancyType::kRelative), 1.0);

  // Over-assigned endpoints: with (u1,u4) and (u2,u4) at 1, u1 = -0.2 and
  // u2 = -0.5, so (u1,u2) steps -0.35, clamped to 0.
  UncertainGraph g = PaperFigure2Graph();
  SparseState state(g, PaperFigure2Backbone());
  state.SetProbability(2, 1.0);
  state.SetProbability(3, 1.0);
  EXPECT_EQ(CandidateProbability(state, 0, kAbs), 0.0);
  EXPECT_EQ(InsertionGain(state, 0, 0.0, kAbs), 0.0);
}

TEST(EmdPrimitivesTest, InsertionGainMatchesQuadraticForm) {
  UncertainGraph g = PaperFigure2Graph();
  SparseState state(g, PaperFigure2Backbone());
  state.RemoveEdge(2);
  // gain(e, w) = du^2 - (du - w)^2 + dv^2 - (dv - w)^2.
  // For (u1,u2) at w = 0.6: 0.64 - 0.04 + 0.16 - 0.04 = 0.72.
  EXPECT_NEAR(InsertionGain(state, 0, 0.6, kAbs), 0.72, 1e-12);
  // For (u1,u4) at w = 0.5: 0.64 - 0.09 + 0.04 - 0.09 = 0.50.
  EXPECT_NEAR(InsertionGain(state, 2, 0.5, kAbs), 0.50, 1e-12);
  // The highest-gain edge is (u1,u2) -- the choice the paper's Figure 3
  // walk-through makes in its first E-phase iteration.
  EXPECT_GT(InsertionGain(state, 0, 0.6, kAbs),
            InsertionGain(state, 2, 0.5, kAbs));
  EXPECT_GT(InsertionGain(state, 0, 0.6, kAbs),
            InsertionGain(state, 1, 0.5, kAbs));
}

TEST(EmdTest, ReproducesPaperFigure3FinalState) {
  // The paper's Figure 3 ends with backbone {(u1,u2), (u1,u4), (u3,u4)}
  // and M-phase probabilities 0.55 / 0.2 / 0.55, giving D1 = 0.01,
  // Delta_1 = 0.2 and entropy ~2.7 bits.
  UncertainGraph g = PaperFigure2Graph();
  SparseState state(g, PaperFigure2Backbone());
  EmdOptions options;
  options.h = 1.0;
  options.tolerance = 1e-12;
  options.max_iterations = 20;
  options.m_phase.max_sweeps = 500;
  options.m_phase.tolerance = 1e-14;
  EmdStats stats = RunEmd(&state, options);

  std::vector<EdgeId> backbone = state.BackboneEdges();
  EXPECT_EQ(backbone, (std::vector<EdgeId>{0, 2, 4}));
  EXPECT_NEAR(state.Probability(0), 0.55, 1e-3);  // (u1,u2).
  EXPECT_NEAR(state.Probability(2), 0.20, 1e-3);  // (u1,u4).
  EXPECT_NEAR(state.Probability(4), 0.55, 1e-3);  // (u3,u4).
  EXPECT_NEAR(stats.final_objective, 0.01, 1e-3);
  EXPECT_NEAR(state.SumAbsDelta(kAbs), 0.2, 1e-3);
  EXPECT_NEAR(state.BuildGraph().EntropyBits(), 2.7, 0.02);
}

TEST(EmdTest, BackboneSizeInvariant) {
  Rng rng(7);
  UncertainGraph g = GenerateErdosRenyi(
      80, 400, ProbabilityDistribution::Uniform(0.05, 0.5), &rng);
  BackboneOptions bopt;
  auto backbone = BuildBackbone(g, 0.4, bopt, &rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());
  std::size_t before = state.BackboneSize();
  EmdOptions options;
  RunEmd(&state, options);
  EXPECT_EQ(state.BackboneSize(), before);
}

TEST(EmdTest, ImprovesObjective) {
  Rng rng(8);
  UncertainGraph g = GenerateErdosRenyi(
      100, 600, ProbabilityDistribution::Uniform(0.05, 0.4), &rng);
  BackboneOptions bopt;
  auto backbone = BuildBackbone(g, 0.3, bopt, &rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());
  EmdOptions options;
  options.h = 0.5;
  EmdStats stats = RunEmd(&state, options);
  EXPECT_LT(stats.final_objective, stats.initial_objective);
}

TEST(EmdTest, AtLeastAsGoodAsGdbOnSameBackbone) {
  // EMD runs GDB as its M-phase (stopped at the looser 1e-2 tolerance)
  // and swaps its way lower, so its final D1 does not exceed plain
  // GDB's.
  Rng rng(9);
  UncertainGraph g = GenerateErdosRenyi(
      120, 700, ProbabilityDistribution::Uniform(0.05, 0.4), &rng);
  BackboneOptions bopt;
  Rng rng_backbone(10);
  auto backbone = BuildBackbone(g, 0.35, bopt, &rng_backbone);
  ASSERT_TRUE(backbone.ok());

  SparseState gdb_state(g, backbone.value());
  GdbOptions gdb;
  gdb.h = 0.5;
  gdb.max_sweeps = 100;
  RunGdb(&gdb_state, gdb);

  SparseState emd_state(g, backbone.value());
  EmdOptions emd;
  emd.h = 0.5;
  emd.max_iterations = 10;
  emd.m_phase.max_sweeps = 100;
  RunEmd(&emd_state, emd);

  EXPECT_LE(emd_state.ObjectiveD1(kAbs),
            gdb_state.ObjectiveD1(kAbs) + 1e-9);
}

TEST(EmdTest, SwapsAreCounted) {
  UncertainGraph g = PaperFigure2Graph();
  SparseState state(g, PaperFigure2Backbone());
  EmdOptions options;
  options.h = 1.0;
  EmdStats stats = RunEmd(&state, options);
  // Figure 3: (u1,u4) is swapped for (u1,u2) in iteration 1, then
  // (u2,u4) is swapped for (u1,u4) in iteration 2 of the E-phase.
  EXPECT_GE(stats.swaps, 2u);
}

TEST(EmdTest, RelativeVariantRuns) {
  Rng rng(11);
  UncertainGraph g = GenerateErdosRenyi(
      60, 300, ProbabilityDistribution::Uniform(0.1, 0.6), &rng);
  BackboneOptions bopt;
  auto backbone = BuildBackbone(g, 0.4, bopt, &rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());
  EmdOptions options;
  options.discrepancy = DiscrepancyType::kRelative;
  EmdStats stats = RunEmd(&state, options);
  EXPECT_LE(stats.final_objective, stats.initial_objective + 1e-12);
  // Probabilities stay in range.
  for (EdgeId e : state.BackboneEdges()) {
    EXPECT_GE(state.Probability(e), 0.0);
    EXPECT_LE(state.Probability(e), 1.0);
  }
}

TEST(EmdTest, ConvergesAndStops) {
  UncertainGraph g = PaperFigure2Graph();
  SparseState state(g, PaperFigure2Backbone());
  EmdOptions options;
  options.h = 1.0;
  options.max_iterations = 50;
  EmdStats stats = RunEmd(&state, options);
  EXPECT_LT(stats.iterations, 50);
}

}  // namespace
}  // namespace ugs
