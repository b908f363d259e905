#include "sparsify/representative.h"

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "query/exact.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

TEST(ModalRepresentativeTest, KeepsMajorityEdges) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.9}, {1, 2, 0.5}, {0, 2, 0.2}});
  std::vector<EdgeId> rep = ModalRepresentative(g);
  EXPECT_EQ(rep, (std::vector<EdgeId>{0, 1}));
}

TEST(ModalRepresentativeTest, LowProbabilityGraphGoesEmpty) {
  UncertainGraph g = testing_util::CompleteK4(0.3);
  EXPECT_TRUE(ModalRepresentative(g).empty());
}

TEST(GreedyRepresentativeTest, RespectsDegreeBudgets) {
  Rng rng(1);
  UncertainGraph g = GenerateErdosRenyi(
      60, 400, ProbabilityDistribution::Uniform(0.1, 0.9), &rng);
  ThreadPool pool;
  std::vector<EdgeId> rep = GreedyDegreeRepresentative(g, &rng, pool);
  std::vector<double> degree(g.num_vertices(), 0.0);
  for (EdgeId e : rep) {
    degree[g.edge(e).u] += 1.0;
    degree[g.edge(e).v] += 1.0;
  }
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    // Budget = round(d_u) (possibly bumped to 1).
    double budget =
        std::max(1.0, std::round(g.ExpectedDegree(u)));
    EXPECT_LE(degree[u], budget + 1e-9) << "vertex " << u;
  }
}

TEST(GreedyRepresentativeTest, DistinctEdges) {
  Rng rng(2);
  UncertainGraph g = GenerateErdosRenyi(
      40, 200, ProbabilityDistribution::Uniform(0.2, 0.9), &rng);
  ThreadPool pool;
  std::vector<EdgeId> rep = GreedyDegreeRepresentative(g, &rng, pool);
  std::set<EdgeId> distinct(rep.begin(), rep.end());
  EXPECT_EQ(distinct.size(), rep.size());
}

TEST(GreedyRepresentativeTest, BetterDegreeMaeThanModal) {
  // On a low-probability graph the modal representative is empty (MAE =
  // mean expected degree); the greedy one approximates degrees.
  Rng rng(3);
  UncertainGraph g = GenerateErdosRenyi(
      100, 1500, ProbabilityDistribution::Uniform(0.05, 0.4), &rng);
  std::vector<EdgeId> modal = ModalRepresentative(g);
  ThreadPool pool;
  std::vector<EdgeId> greedy = GreedyDegreeRepresentative(g, &rng, pool);
  EXPECT_LT(RepresentativeDegreeMae(g, greedy),
            RepresentativeDegreeMae(g, modal));
  EXPECT_LT(RepresentativeDegreeMae(g, greedy), 1.0);
}

TEST(RepresentativeDegreeMaeTest, ExactOnHandInstance) {
  UncertainGraph g = testing_util::PaperFigure2Graph();
  // Representative = edge (u1,u2) only: degrees (1,1,0,0) vs expected
  // (0.8, 0.5, 0.6, 0.7) -> MAE = (0.2 + 0.5 + 0.6 + 0.7)/4 = 0.5.
  EXPECT_NEAR(RepresentativeDegreeMae(g, {0}), 0.5, 1e-12);
}

TEST(MaterializeRepresentativeTest, DeterministicGraph) {
  UncertainGraph g = testing_util::CompleteK4(0.6);
  std::vector<EdgeId> rep = ModalRepresentative(g);
  UncertainGraph det = MaterializeRepresentative(g, rep);
  EXPECT_EQ(det.num_edges(), 6u);
  for (const UncertainEdge& e : det.edges()) {
    EXPECT_DOUBLE_EQ(e.p, 1.0);
  }
  EXPECT_DOUBLE_EQ(det.EntropyBits(), 0.0);
}

TEST(RepresentativeLimitationTest, CannotAnswerProbabilisticQueries) {
  // The paper's Section 2.3 point: a deterministic representative answers
  // Pr[G connected] with 0 or 1, never the true 0.219.
  UncertainGraph g = testing_util::CompleteK4(0.3);
  Rng rng(4);
  ThreadPool pool;
  std::vector<EdgeId> rep = GreedyDegreeRepresentative(g, &rng, pool);
  UncertainGraph det = MaterializeRepresentative(g, rep);
  double p = ExactConnectivityProbability(det, pool);
  EXPECT_TRUE(p == 0.0 || p == 1.0);
  EXPECT_NEAR(ExactConnectivityProbability(g, pool), 0.2186, 0.001);
}

}  // namespace
}  // namespace ugs
