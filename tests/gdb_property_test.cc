// Property tests for GDB and SparseState over the full option grid:
// h x discrepancy type x cut rule, on randomized graphs. These guard the
// invariants the worked-example tests cannot: probability legality after
// every single update, consistency of the incrementally maintained
// discrepancies and total mass against from-scratch recomputation, and
// monotonicity of the k = 1 objective.

#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "sparsify/backbone.h"
#include "sparsify/gdb.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

UncertainGraph PropertyGraph(std::uint64_t seed) {
  Rng rng(seed);
  return GenerateErdosRenyi(50, 300,
                            ProbabilityDistribution::Uniform(0.05, 0.9),
                            &rng, /*ensure_connected=*/true);
}

/// Recomputes delta_A and T from scratch and compares with the state's
/// incremental values.
void CheckStateConsistency(const SparseState& state) {
  const UncertainGraph& g = state.graph();
  std::vector<double> delta(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    delta[u] = g.ExpectedDegree(u);
  }
  double mass = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    mass += g.edge(e).p;
    if (state.InBackbone(e)) {
      double p = state.Probability(e);
      delta[g.edge(e).u] -= p;
      delta[g.edge(e).v] -= p;
      mass -= p;
    } else {
      ASSERT_DOUBLE_EQ(state.Probability(e), 0.0);
    }
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    ASSERT_NEAR(state.DeltaAbs(u), delta[u], 1e-9) << "vertex " << u;
  }
  ASSERT_NEAR(state.TotalMass(), mass, 1e-9);
}

struct GridCase {
  double h;
  DiscrepancyType type;
  int k;        // 0 means the k = n rule.
};

class GdbGridTest : public ::testing::TestWithParam<GridCase> {};

TEST_P(GdbGridTest, InvariantsHoldThroughOptimization) {
  const GridCase& param = GetParam();
  UncertainGraph g = PropertyGraph(1000 + param.k);
  Rng rng(7);
  BackboneOptions bopt;
  auto backbone = BuildBackbone(g, 0.4, bopt, &rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());

  GdbOptions options;
  options.h = param.h;
  options.discrepancy = param.type;
  options.rule = param.k == 0 ? CutRule::AllCuts() : CutRule::Cuts(param.k);
  options.max_sweeps = 8;

  std::size_t backbone_size = state.BackboneSize();
  RunGdb(&state, options);

  // Backbone membership untouched; probabilities legal everywhere.
  EXPECT_EQ(state.BackboneSize(), backbone_size);
  for (EdgeId e : backbone.value()) {
    EXPECT_TRUE(state.InBackbone(e));
    EXPECT_GE(state.Probability(e), 0.0);
    EXPECT_LE(state.Probability(e), 1.0);
  }
  CheckStateConsistency(state);
}

TEST_P(GdbGridTest, SingleUpdatesNeverLeaveUnitInterval) {
  const GridCase& param = GetParam();
  UncertainGraph g = PropertyGraph(2000 + param.k);
  Rng rng(11);
  BackboneOptions bopt;
  bopt.kind = BackboneKind::kRandom;
  auto backbone = BuildBackbone(g, 0.3, bopt, &rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());
  GdbOptions options;
  options.h = param.h;
  options.discrepancy = param.type;
  options.rule = param.k == 0 ? CutRule::AllCuts() : CutRule::Cuts(param.k);
  for (EdgeId e : backbone.value()) {
    double p = UpdateEdgeProbability(&state, e, options);
    ASSERT_GE(p, 0.0);
    ASSERT_LE(p, 1.0);
    ASSERT_DOUBLE_EQ(p, state.Probability(e));
  }
  CheckStateConsistency(state);
}

INSTANTIATE_TEST_SUITE_P(
    HxTypexK, GdbGridTest,
    ::testing::Values(
        GridCase{0.0, DiscrepancyType::kAbsolute, 1},
        GridCase{0.05, DiscrepancyType::kAbsolute, 1},
        GridCase{1.0, DiscrepancyType::kAbsolute, 1},
        GridCase{0.05, DiscrepancyType::kRelative, 1},
        GridCase{1.0, DiscrepancyType::kRelative, 1},
        GridCase{0.05, DiscrepancyType::kAbsolute, 2},
        GridCase{1.0, DiscrepancyType::kAbsolute, 2},
        GridCase{0.05, DiscrepancyType::kAbsolute, 5},
        GridCase{0.05, DiscrepancyType::kAbsolute, 25},
        GridCase{0.05, DiscrepancyType::kAbsolute, 0},   // k = n.
        GridCase{1.0, DiscrepancyType::kAbsolute, 0}),
    [](const ::testing::TestParamInfo<GridCase>& info) {
      const GridCase& c = info.param;
      std::string name = "h";
      name += std::to_string(static_cast<int>(c.h * 100));
      name += c.type == DiscrepancyType::kAbsolute ? "_abs" : "_rel";
      name += "_k" + (c.k == 0 ? std::string("n") : std::to_string(c.k));
      return name;
    });

class GdbMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(GdbMonotonicityTest, K1ObjectiveNonIncreasingSweepBySweep) {
  const double h = GetParam();
  UncertainGraph g = PropertyGraph(33);
  Rng rng(13);
  BackboneOptions bopt;
  auto backbone = BuildBackbone(g, 0.5, bopt, &rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());
  GdbOptions options;
  options.h = h;
  options.max_sweeps = 1;
  options.tolerance = 0.0;
  double previous = state.ObjectiveD1(DiscrepancyType::kAbsolute);
  for (int sweep = 0; sweep < 6; ++sweep) {
    RunGdb(&state, options);
    double current = state.ObjectiveD1(DiscrepancyType::kAbsolute);
    ASSERT_LE(current, previous + 1e-9) << "h=" << h << " sweep " << sweep;
    previous = current;
  }
}

INSTANTIATE_TEST_SUITE_P(AllH, GdbMonotonicityTest,
                         ::testing::Values(0.0, 0.01, 0.05, 0.1, 0.5, 1.0));

TEST(SparseStatePropertyTest, AddRemoveRoundTripRestoresState) {
  UncertainGraph g = PropertyGraph(55);
  Rng rng(17);
  BackboneOptions bopt;
  bopt.kind = BackboneKind::kRandom;
  auto backbone = BuildBackbone(g, 0.4, bopt, &rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());
  double mass_before = state.TotalMass();
  double objective_before = state.ObjectiveD1(DiscrepancyType::kAbsolute);
  // Remove and re-add every backbone edge at its original probability.
  for (EdgeId e : backbone.value()) {
    double p = state.Probability(e);
    state.RemoveEdge(e);
    state.AddEdge(e, p);
  }
  EXPECT_NEAR(state.TotalMass(), mass_before, 1e-9);
  EXPECT_NEAR(state.ObjectiveD1(DiscrepancyType::kAbsolute),
              objective_before, 1e-9);
  CheckStateConsistency(state);
}

TEST(SparseStatePropertyTest, ObjectiveMatchesDefinition) {
  UncertainGraph g = testing_util::PaperFigure2Graph();
  SparseState state(g, testing_util::PaperFigure2Backbone());
  // D1 = sum delta^2 computed by hand: 0.36 + 0.16 + 0.04 + 0 = 0.56;
  // relative: (0.6/0.8)^2 + (0.4/0.5)^2 + (0.2/0.6)^2 + 0.
  EXPECT_NEAR(state.ObjectiveD1(DiscrepancyType::kAbsolute), 0.56, 1e-12);
  double rel = 0.75 * 0.75 + 0.8 * 0.8 + (1.0 / 3.0) * (1.0 / 3.0);
  EXPECT_NEAR(state.ObjectiveD1(DiscrepancyType::kRelative), rel, 1e-12);
}

// EntropyRises must answer exactly as the two-logarithm test it replaces,
// on every pair, including the pairs inside its 1e-12 band where only the
// logs can decide.
bool LogTest(double proposed, double current) {
  return EdgeEntropyBits(proposed) > EdgeEntropyBits(current);
}

/// Counts the pairs (p, c) on which EntropyRises and the log test differ,
/// checking both orders.
int Disagreements(const std::vector<std::pair<double, double>>& pairs) {
  int bad = 0;
  for (const auto& [p, c] : pairs) {
    if (EntropyRises(p, c) != LogTest(p, c)) ++bad;
    if (EntropyRises(c, p) != LogTest(c, p)) ++bad;
  }
  return bad;
}

TEST(EntropyRisesPropertyTest, MatchesLogTestOnRandomPairs) {
  Rng rng(31);
  std::vector<std::pair<double, double>> pairs;
  for (int i = 0; i < 500000; ++i) {
    pairs.emplace_back(rng.NextDouble(), rng.NextDouble());
  }
  EXPECT_EQ(Disagreements(pairs), 0);
}

TEST(EntropyRisesPropertyTest, MatchesLogTestNearOneHalf) {
  // Both points within 2^-k of 1/2, for k = 1..40: from k ~ 20 on most
  // pairs fall inside the 1e-12 band, where only the logs decide.
  Rng rng(32);
  for (int k = 1; k <= 40; ++k) {
    const double scale = std::ldexp(1.0, -k);
    std::vector<std::pair<double, double>> pairs;
    for (int i = 0; i < 5000; ++i) {
      const double x = scale * (2.0 * rng.NextDouble() - 1.0);
      const double y = scale * (2.0 * rng.NextDouble() - 1.0);
      pairs.emplace_back(0.5 + x, 0.5 + y);
      pairs.emplace_back(0.5 + x, 0.5 - x);  // Mirror pair.
      pairs.emplace_back(0.5 + x, 0.5 + x * (1.0 + 1e-6));
    }
    pairs.emplace_back(0.5 + scale, 0.5 - scale);
    pairs.emplace_back(0.5, 0.5 + scale);
    EXPECT_EQ(Disagreements(pairs), 0) << "scale 2^-" << k;
  }
}

TEST(EntropyRisesPropertyTest, MatchesLogTestNearTheEndpoints) {
  // Points within 2^-k of 0 or 1, the endpoints themselves (entropy 0,
  // the value a clamped edge carries) and mirror pairs (p, 1 - p).
  Rng rng(33);
  for (int k = 1; k <= 60; ++k) {
    const double scale = std::ldexp(1.0, -k);
    std::vector<std::pair<double, double>> pairs;
    for (int i = 0; i < 2000; ++i) {
      const double x = scale * rng.NextDouble();
      const double y = scale * rng.NextDouble();
      pairs.emplace_back(x, y);
      pairs.emplace_back(1.0 - x, 1.0 - y);
      pairs.emplace_back(x, 1.0 - y);
      pairs.emplace_back(x, 1.0 - x);  // Mirror pair.
      for (double end : {0.0, 1.0}) {
        pairs.emplace_back(x, end);
        pairs.emplace_back(1.0 - x, end);
      }
    }
    EXPECT_EQ(Disagreements(pairs), 0) << "scale 2^-" << k;
  }
  // Every pair of the endpoints, 1/2 and the floats next to the endpoints.
  const double points[] = {0.0, 0.5, 1.0, std::nextafter(0.0, 1.0),
                           std::nextafter(1.0, 0.0)};
  std::vector<std::pair<double, double>> pairs;
  for (double p : points) {
    for (double c : points) pairs.emplace_back(p, c);
  }
  EXPECT_EQ(Disagreements(pairs), 0);
}

}  // namespace
}  // namespace ugs
