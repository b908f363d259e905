#include "sparsify/sparsifier.h"

#include <limits>
#include <set>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "sparsify/sparse_state.h"
#include "tests/test_util.h"

namespace ugs {
namespace {

/// Shared medium test graph: dense enough that every alpha in the paper's
/// sweep admits a connected backbone (0.08 |E| >= |V| - 1, footnote 7).
const UncertainGraph& TestGraph() {
  static const UncertainGraph* graph = [] {
    Rng rng(12345);
    auto* g = new UncertainGraph(GenerateErdosRenyi(
        120, 1800, ProbabilityDistribution::Uniform(0.05, 0.7), &rng));
    return g;
  }();
  return *graph;
}

using VariantCase = std::tuple<std::string, double>;

class SparsifierVariantTest
    : public ::testing::TestWithParam<VariantCase> {};

TEST_P(SparsifierVariantTest, ProducesValidSparsifiedGraph) {
  const auto& [name, alpha] = GetParam();
  auto method = MakeSparsifierByName(name);
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  const UncertainGraph& g = TestGraph();
  Rng rng(99);
  Result<SparsifyOutput> result = (*method)->Sparsify(g, alpha, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // |E'| = alpha |E| exactly (Problem 1).
  EXPECT_EQ(result->graph.num_edges(), TargetEdgeCount(g, alpha));
  EXPECT_EQ(result->original_edge_ids.size(), result->graph.num_edges());
  EXPECT_EQ(result->graph.num_vertices(), g.num_vertices());

  // E' is a subset of E: ids valid and distinct, endpoints match.
  std::set<EdgeId> distinct;
  for (std::size_t i = 0; i < result->original_edge_ids.size(); ++i) {
    EdgeId orig = result->original_edge_ids[i];
    ASSERT_LT(orig, g.num_edges());
    EXPECT_TRUE(distinct.insert(orig).second);
    const UncertainEdge& oe = g.edge(orig);
    const UncertainEdge& se = result->graph.edge(static_cast<EdgeId>(i));
    EXPECT_EQ(std::min(oe.u, oe.v), std::min(se.u, se.v));
    EXPECT_EQ(std::max(oe.u, oe.v), std::max(se.u, se.v));
  }

  // Probabilities are legal.
  for (const UncertainEdge& e : result->graph.edges()) {
    EXPECT_GE(e.p, 0.0);
    EXPECT_LE(e.p, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllAlphas, SparsifierVariantTest,
    ::testing::Combine(
        ::testing::Values("LP", "LP-t", "GDBA", "GDBR", "GDBA2", "GDBAn",
                          "GDBA-t", "GDBR-t", "EMDA", "EMDR", "EMDA-t",
                          "EMDR-t", "NI", "SS", "GDBA-k3"),
        ::testing::Values(0.08, 0.16, 0.32, 0.64)),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_a" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(SparsifierRegistryTest, KnownNamesAllConstruct) {
  for (const std::string& name : KnownSparsifierNames()) {
    auto method = MakeSparsifierByName(name);
    ASSERT_TRUE(method.ok()) << name;
    EXPECT_EQ((*method)->name(), name);
  }
}

TEST(SparsifierRegistryTest, RepresentativeAliases) {
  auto gdb = MakeSparsifierByName("GDB");
  ASSERT_TRUE(gdb.ok());
  EXPECT_EQ((*gdb)->name(), "GDBA");
  auto emd = MakeSparsifierByName("EMD");
  ASSERT_TRUE(emd.ok());
  EXPECT_EQ((*emd)->name(), "EMDR-t");
}

TEST(SparsifierRegistryTest, UnknownNameRejected) {
  EXPECT_FALSE(MakeSparsifierByName("FOO").ok());
  EXPECT_FALSE(MakeSparsifierByName("GDBX").ok());
  EXPECT_FALSE(MakeSparsifierByName("EMDA2").ok());  // EMD is k=1 only.
  EXPECT_FALSE(MakeSparsifierByName("GDBA-k0").ok());
}

// h outside [0, 1] (NaN included) is refused when the sparsifier is
// built, before any backbone: RunGdb and RunEmd abort on it.
TEST(SparsifierRegistryTest, EntropyParameterOutsideUnitIntervalRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::string name : {"GDB", "EMD", "GDBR-t", "EMDA", "LP-t"}) {
    for (double h : {2.0, -0.1, nan}) {
      auto method = MakeSparsifierByName(name, h);
      ASSERT_FALSE(method.ok()) << name << " h=" << h;
      EXPECT_EQ(method.status().code(), StatusCode::kInvalidArgument)
          << name << " h=" << h;
    }
  }
  for (const std::string name : {"GDB", "EMD"}) {
    for (double h : {0.0, 1.0}) {
      auto method = MakeSparsifierByName(name, h);
      ASSERT_TRUE(method.ok()) << name << " h=" << h;
      Rng rng(3);
      Result<SparsifyOutput> out = (*method)->Sparsify(TestGraph(), 0.16, &rng);
      ASSERT_TRUE(out.ok()) << name << " h=" << h;
      EXPECT_EQ(out->graph.num_edges(), TargetEdgeCount(TestGraph(), 0.16));
    }
  }
}

TEST(SparsifierRegistryTest, GeneralKName) {
  auto m = MakeSparsifierByName("GDBA-k5");
  ASSERT_TRUE(m.ok());
  EXPECT_EQ((*m)->name(), "GDBA-k5");
}

TEST(SparsifierTest, SpanningVariantsYieldConnectedGraphs) {
  Rng rng(5);
  const UncertainGraph& g = TestGraph();
  for (std::string name : {"GDBA-t", "EMDR-t", "LP-t"}) {
    auto method = MakeSparsifierByName(name);
    ASSERT_TRUE(method.ok());
    Result<SparsifyOutput> result = (*method)->Sparsify(g, 0.32, &rng);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->graph.IsStructurallyConnected()) << name;
  }
}

TEST(SparsifierTest, ReportsPositiveTime) {
  Rng rng(6);
  auto method = MakeSparsifierByName("GDBA");
  ASSERT_TRUE(method.ok());
  Result<SparsifyOutput> result =
      (*method)->Sparsify(TestGraph(), 0.32, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->seconds, 0.0);
}

TEST(SparsifierTest, GdbReducesEntropyVsBackboneSeed) {
  // The central entropy claim: GDB's output entropy is below the original
  // graph's entropy scaled by alpha-ish, and below seeding probabilities.
  Rng rng(7);
  auto method = MakeSparsifierByName("GDBA", /*h=*/0.05);
  ASSERT_TRUE(method.ok());
  const UncertainGraph& g = TestGraph();
  Result<SparsifyOutput> result = (*method)->Sparsify(g, 0.32, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->graph.EntropyBits(), g.EntropyBits());
}

TEST(SparsifierTest, InvalidAlphaSurfacesStatus) {
  Rng rng(8);
  auto method = MakeSparsifierByName("GDBA");
  ASSERT_TRUE(method.ok());
  EXPECT_FALSE((*method)->Sparsify(TestGraph(), 0.0, &rng).ok());
  EXPECT_FALSE((*method)->Sparsify(TestGraph(), 1.5, &rng).ok());
}

// EMDR-t on a fixed graph and seed (the sparsify_eval regime at small
// scale): the counts in SparsifyOutput are the ones RunEmd reports when
// run by hand on the same backbone, and they add up round by round.
TEST(SparsifierCostTest, EmdrTReportsTheCountsItRuns) {
  const UncertainGraph g = MakeTwitterLike(0.1, 43);
  auto method = MakeSparsifierByName("EMDR-t");
  ASSERT_TRUE(method.ok());
  Rng rng(99);
  Result<SparsifyOutput> out = (*method)->Sparsify(g, 0.16, &rng);
  ASSERT_TRUE(out.ok());

  Rng by_hand_rng(99);
  auto backbone = BuildBackbone(g, 0.16, BackboneOptions{}, &by_hand_rng);
  ASSERT_TRUE(backbone.ok());
  EmdOptions options;
  options.discrepancy = DiscrepancyType::kRelative;
  SparseState state(g, backbone.value());
  const EmdStats stats = RunEmd(&state, options);
  EXPECT_EQ(out->iterations, stats.iterations);
  EXPECT_EQ(out->sweeps, stats.sweeps);
  EXPECT_EQ(out->swaps, stats.swaps);
  EXPECT_EQ(out->converged, stats.converged);
  EXPECT_EQ(out->final_objective, stats.final_objective);
  EXPECT_EQ(out->final_objective,
            state.ObjectiveD1(DiscrepancyType::kRelative));
  // Here the EM loop runs to its cap; the M-phases stop on tau.
  EXPECT_EQ(stats.iterations, options.max_iterations);
  EXPECT_FALSE(stats.converged);
  EXPECT_GE(stats.sweeps, stats.iterations);
  EXPECT_LT(stats.sweeps, stats.iterations * options.m_phase.max_sweeps);

  // All rounds but the last, then the last one on its own: the same
  // final state, and the counts of the two runs add up to the whole.
  EmdOptions head = options;
  head.max_iterations = stats.iterations - 1;
  SparseState split(g, backbone.value());
  const EmdStats head_stats = RunEmd(&split, head);
  EmdOptions tail = options;
  tail.max_iterations = 1;
  const EmdStats tail_stats = RunEmd(&split, tail);
  EXPECT_EQ(split.BackboneEdges(), state.BackboneEdges());
  EXPECT_EQ(split.ObjectiveD1(DiscrepancyType::kRelative),
            stats.final_objective);
  EXPECT_EQ(head_stats.iterations + tail_stats.iterations, stats.iterations);
  EXPECT_EQ(head_stats.sweeps + tail_stats.sweeps, stats.sweeps);
  EXPECT_EQ(head_stats.swaps + tail_stats.swaps, stats.swaps);
}

// The paper's Table 2: on the sparsify_eval regime at small scale, every
// EMD variant ends with a D1 no higher than the GDB of its discrepancy
// type on the same backbone. Replayed one round at a time, the same run
// shows each M-phase stopping on its tolerance, below the sweep cap.
TEST(SparsifierQualityTest, EmdBeatsGdbWithEveryMPhaseBelowTheCap) {
  const UncertainGraph g = MakeTwitterLike(0.1, 43);
  const double alpha = 0.16;
  struct Pair {
    std::string emd;
    std::string gdb;
    DiscrepancyType type;
    BackboneKind backbone;
  };
  const Pair pairs[] = {
      {"EMDA", "GDBA", DiscrepancyType::kAbsolute, BackboneKind::kRandom},
      {"EMDR", "GDBR", DiscrepancyType::kRelative, BackboneKind::kRandom},
      {"EMDA-t", "GDBA-t", DiscrepancyType::kAbsolute, BackboneKind::kSpanning},
      {"EMDR-t", "GDBR-t", DiscrepancyType::kRelative, BackboneKind::kSpanning},
  };
  for (const Pair& pair : pairs) {
    for (std::uint64_t seed : {7u, 20261018u}) {
      const std::string label = pair.emd + " seed " + std::to_string(seed);
      auto emd = MakeSparsifierByName(pair.emd);
      auto gdb = MakeSparsifierByName(pair.gdb);
      ASSERT_TRUE(emd.ok() && gdb.ok()) << label;
      Rng emd_rng(seed);
      Rng gdb_rng(seed);
      Result<SparsifyOutput> emd_out = (*emd)->Sparsify(g, alpha, &emd_rng);
      Result<SparsifyOutput> gdb_out = (*gdb)->Sparsify(g, alpha, &gdb_rng);
      ASSERT_TRUE(emd_out.ok() && gdb_out.ok()) << label;
      EXPECT_LE(emd_out->final_objective, gdb_out->final_objective) << label;

      Rng backbone_rng(seed);
      BackboneOptions backbone_options;
      backbone_options.kind = pair.backbone;
      auto backbone = BuildBackbone(g, alpha, backbone_options, &backbone_rng);
      ASSERT_TRUE(backbone.ok()) << label;
      EmdOptions round;
      round.discrepancy = pair.type;
      round.max_iterations = 1;
      SparseState state(g, backbone.value());
      int sweeps = 0;
      for (int r = 0; r < emd_out->iterations; ++r) {
        const EmdStats stats = RunEmd(&state, round);
        EXPECT_LT(stats.sweeps, round.m_phase.max_sweeps)
            << label << " round " << r;
        sweeps += stats.sweeps;
      }
      EXPECT_EQ(sweeps, emd_out->sweeps) << label;
      EXPECT_EQ(state.ObjectiveD1(pair.type), emd_out->final_objective)
          << label;
    }
  }
}

TEST(SparsifierCostTest, GdbReportsItsSweeps) {
  const UncertainGraph& g = TestGraph();
  auto method = MakeSparsifierByName("GDBA");
  ASSERT_TRUE(method.ok());
  Rng rng(98);
  Result<SparsifyOutput> out = (*method)->Sparsify(g, 0.16, &rng);
  ASSERT_TRUE(out.ok());

  Rng by_hand_rng(98);
  BackboneOptions random;
  random.kind = BackboneKind::kRandom;
  auto backbone = BuildBackbone(g, 0.16, random, &by_hand_rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());
  const GdbStats stats = RunGdb(&state, GdbOptions{});
  EXPECT_EQ(out->iterations, 0);
  EXPECT_EQ(out->sweeps, stats.sweeps);
  EXPECT_EQ(out->swaps, 0u);
  EXPECT_EQ(out->converged, stats.converged);
  EXPECT_EQ(out->final_objective, stats.final_objective);
}

TEST(SparsifierCostTest, NonIterativeMethodsReportNoCounts) {
  for (std::string name : {"LP-t", "NI", "SS"}) {
    auto method = MakeSparsifierByName(name);
    ASSERT_TRUE(method.ok());
    Rng rng(97);
    Result<SparsifyOutput> out = (*method)->Sparsify(TestGraph(), 0.16, &rng);
    ASSERT_TRUE(out.ok()) << name;
    EXPECT_EQ(out->iterations, 0) << name;
    EXPECT_EQ(out->sweeps, 0) << name;
    EXPECT_EQ(out->swaps, 0u) << name;
    EXPECT_FALSE(out->converged) << name;
    EXPECT_EQ(out->final_objective, 0.0) << name;
  }
}

}  // namespace
}  // namespace ugs
