#include "sparsify/ni.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "sparsify/backbone.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

TEST(NiCoreTest, UnitWeightsDieInOneRoundOnTree) {
  // A tree with all weights 1: the single spanning forest covers every
  // edge, so every edge dies at round 1 and is sampled with
  // l = min(log n / eps^2, 1).
  UncertainGraph g = testing_util::PathGraph(10, 0.5);
  std::vector<int> w(g.num_edges(), 1);
  Rng rng(1);
  // Tiny eps -> l = 1 -> everything kept with weight w/1 = 1.
  NiCoreResult r = RunNiCore(g, w, /*epsilon=*/1e-3, &rng);
  EXPECT_EQ(r.rounds, 1);
  EXPECT_EQ(r.edges.size(), g.num_edges());
  for (double iw : r.inflated_weights) EXPECT_DOUBLE_EQ(iw, 1.0);
}

TEST(NiCoreTest, RoundsBoundedByMaxWeight) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  std::vector<int> w(g.num_edges(), 3);
  Rng rng(2);
  NiCoreResult r = RunNiCore(g, w, 1e-3, &rng);
  // Each round peels one spanning forest; weight-3 edges need exactly 3
  // covering forests each, and K4's forests cover every edge... at most
  // weight * (peel width) rounds.
  EXPECT_GE(r.rounds, 3);
  EXPECT_LE(r.rounds, 12);
  EXPECT_EQ(r.edges.size(), g.num_edges());  // l = 1 keeps everything.
}

TEST(NiCoreTest, LargeEpsilonDropsDenseEdges) {
  // Huge eps -> l ~ 0 -> nearly nothing survives.
  Rng rng(3);
  UncertainGraph g = GenerateErdosRenyi(
      50, 400, ProbabilityDistribution::Uniform(0.3, 0.7), &rng);
  std::vector<int> w(g.num_edges(), 1);
  NiCoreResult r = RunNiCore(g, w, /*epsilon=*/100.0, &rng);
  EXPECT_LT(r.edges.size(), g.num_edges() / 4);
}

TEST(NiCoreTest, InflatedWeightIsOriginalOverSamplingProbability) {
  UncertainGraph g = testing_util::StarGraph(6, 0.5);
  std::vector<int> w(g.num_edges(), 2);
  Rng rng(4);
  // eps chosen so l = log(6)/(eps^2 * 2) < 1 at death round 2.
  double eps = 1.5;
  NiCoreResult r = RunNiCore(g, w, eps, &rng);
  double expected_l = std::log(6.0) / (eps * eps * 2.0);
  ASSERT_LT(expected_l, 1.0);
  for (double iw : r.inflated_weights) {
    EXPECT_NEAR(iw, 2.0 / expected_l, 1e-9);
  }
}

/// NI calibrates on this pool (hardware concurrency); the result is the
/// same at any width.
class NiSparsifyTest : public ::testing::Test {
 protected:
  ThreadPool pool;
};

TEST_F(NiSparsifyTest, ExactEdgeCount) {
  Rng rng(5);
  UncertainGraph g = GenerateErdosRenyi(
      100, 800, ProbabilityDistribution::Uniform(0.05, 0.6), &rng);
  NiOptions options;
  for (double alpha : {0.16, 0.32, 0.64}) {
    Rng local = rng.Fork();
    Result<NiResult> r = NiSparsify(g, alpha, options, &local, pool);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->edges.size(), TargetEdgeCount(g, alpha));
    EXPECT_EQ(r->probabilities.size(), r->edges.size());
  }
}

TEST_F(NiSparsifyTest, DistinctEdges) {
  Rng rng(6);
  UncertainGraph g = GenerateErdosRenyi(
      60, 400, ProbabilityDistribution::Uniform(0.1, 0.8), &rng);
  Result<NiResult> r = NiSparsify(g, 0.4, {}, &rng, pool);
  ASSERT_TRUE(r.ok());
  std::set<EdgeId> distinct(r->edges.begin(), r->edges.end());
  EXPECT_EQ(distinct.size(), r->edges.size());
}

TEST_F(NiSparsifyTest, ProbabilitiesCappedAtOne) {
  // NI inflates kept weights by 1/l; the back-transform must cap at 1
  // (the paper's p' = min(w' p_min, 1)).
  Rng rng(7);
  UncertainGraph g = GenerateErdosRenyi(
      80, 600, ProbabilityDistribution::Uniform(0.05, 0.95), &rng);
  Result<NiResult> r = NiSparsify(g, 0.2, {}, &rng, pool);
  ASSERT_TRUE(r.ok());
  bool saw_capped = false;
  for (double p : r->probabilities) {
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 1.0);
    if (p == 1.0) saw_capped = true;
  }
  // At alpha = 0.2 the sampling probability is small, so inflation caps
  // at least one edge in practice.
  EXPECT_TRUE(saw_capped);
}

TEST_F(NiSparsifyTest, InvalidAlphaRejected) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(8);
  EXPECT_FALSE(NiSparsify(g, 0.0, {}, &rng, pool).ok());
  EXPECT_FALSE(NiSparsify(g, 1.2, {}, &rng, pool).ok());
}

TEST_F(NiSparsifyTest, CalibrationRecorded) {
  Rng rng(9);
  UncertainGraph g = GenerateErdosRenyi(
      80, 500, ProbabilityDistribution::Uniform(0.1, 0.7), &rng);
  Result<NiResult> r = NiSparsify(g, 0.3, {}, &rng, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r->calibration_runs, 1);
  EXPECT_GT(r->epsilon_used, 0.0);
}

TEST_F(NiSparsifyTest, WeightCapFlagOnPathologicalPmin) {
  // One edge with p = 1e-6 and others near 1: ratio exceeds the cap.
  std::vector<UncertainEdge> edges{{0, 1, 1e-6}};
  for (VertexId i = 1; i + 1 < 20; ++i) {
    edges.push_back({i, static_cast<VertexId>(i + 1), 0.9});
  }
  for (VertexId i = 0; i + 2 < 20; ++i) {
    edges.push_back({i, static_cast<VertexId>(i + 2), 0.8});
  }
  UncertainGraph g = UncertainGraph::FromEdges(20, std::move(edges));
  Rng rng(10);
  NiOptions options;
  options.max_weight = 1000;
  Result<NiResult> r = NiSparsify(g, 0.5, options, &rng, pool);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->weight_cap_hit);
}

}  // namespace
}  // namespace ugs
