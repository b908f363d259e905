#include "sparsify/emd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "sparsify/backbone.h"
#include "util/indexed_heap.h"
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

// --- The bound-pruned E-phase scan against a full scan. ---

/// Lines 14-17 of Algorithm 3 without the bound: every non-backbone edge
/// at `top` scored by CandidateProbability and InsertionGain, in
/// adjacency order, the first strictly greater gain winning over
/// `removed`.
EPhaseChoice FullScan(const SparseState& state, VertexId top, EdgeId removed,
                      DiscrepancyType type) {
  const double p0 = CandidateProbability(state, removed, type);
  EPhaseChoice best{removed, p0};
  double best_gain = InsertionGain(state, removed, p0, type);
  for (const AdjacencyEntry& a : state.graph().Neighbors(top)) {
    if (state.InBackbone(a.edge) || a.edge == removed) continue;
    const double p = CandidateProbability(state, a.edge, type);
    const double gain = InsertionGain(state, a.edge, p, type);
    if (gain > best_gain) {
      best_gain = gain;
      best = {a.edge, p};
    }
  }
  return best;
}

/// Every vertex joined to its next `k` around a ring of n, all at p:
/// regular, so equal discrepancies and tied gains abound.
UncertainGraph RingLattice(std::size_t n, std::size_t k, double p) {
  std::vector<UncertainEdge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (std::size_t j = 1; j <= k; ++j) {
      edges.push_back({u, static_cast<VertexId>((u + j) % n), p});
    }
  }
  return UncertainGraph::FromEdges(n, std::move(edges));
}

/// Random pairs at p in {0, 1/2, 1} or uniform, vertices 0-3 joined only
/// by p = 0 edges (expected degree 0, so relative weight 0), and the
/// last vertex isolated.
UncertainGraph MixedGraph(Rng* rng) {
  const std::size_t n = 40;
  std::vector<UncertainEdge> edges = {
      {0, 1, 0.0}, {1, 2, 0.0}, {2, 3, 0.0}, {0, 2, 0.0}, {0, 3, 0.0}};
  std::vector<char> seen(n * n, 0);
  for (const UncertainEdge& e : edges) seen[e.u * n + e.v] = 1;
  while (edges.size() < 170) {
    const auto u = static_cast<VertexId>(rng->NextIndex(n - 1));
    const auto v = static_cast<VertexId>(rng->NextIndex(n - 1));
    if (u == v || seen[std::min(u, v) * n + std::max(u, v)]) continue;
    if (u < 4 && v < 4) continue;
    seen[std::min(u, v) * n + std::max(u, v)] = 1;
    const double grid[] = {0.0, 0.5, 1.0, rng->NextDouble()};
    double p = grid[rng->NextIndex(4)];
    if (u < 4 || v < 4) p = 0.0;
    edges.push_back({u, v, p});
  }
  return UncertainGraph::FromEdges(n, std::move(edges));
}

/// Drives random E-phase steps on `graph` -- perturbed probabilities,
/// `top` at the removed edge or anywhere -- and checks every pruned
/// choice against FullScan, bit for bit. Returns the scan counts.
EPhaseCounts CheckAgainstFullScan(const UncertainGraph& graph,
                                  DiscrepancyType type, Rng* rng,
                                  const std::string& label) {
  std::vector<EdgeId> backbone;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (rng->Bernoulli(0.35)) backbone.push_back(e);
  }
  SparseState state(graph, backbone);
  const double grid[] = {0.0, 0.25, 0.5, 1.0};
  EPhaseCounts counts;
  for (int step = 0; step < 600; ++step) {
    const std::vector<EdgeId> members = state.BackboneEdges();
    if (members.empty()) break;
    if (rng->NextIndex(4) == 0) {
      state.SetProbability(members[rng->NextIndex(members.size())],
                           grid[rng->NextIndex(4)]);
    }
    const EdgeId removed = members[rng->NextIndex(members.size())];
    state.RemoveEdge(removed);
    const UncertainEdge& ed = graph.edge(removed);
    const std::uint64_t pick = rng->NextIndex(3);
    const VertexId top =
        pick == 0 ? ed.u
        : pick == 1
            ? ed.v
            : static_cast<VertexId>(rng->NextIndex(graph.num_vertices()));
    const EPhaseChoice got =
        EPhaseBestCandidate(state, top, removed, type, &counts);
    const EPhaseChoice want = FullScan(state, top, removed, type);
    EXPECT_EQ(got.edge, want.edge) << label << " step " << step;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.p),
              std::bit_cast<std::uint64_t>(want.p))
        << label << " step " << step;
    state.AddEdge(got.edge, got.p);
  }
  return counts;
}

TEST(EPhaseBoundTest, PrunedScanMatchesFullScan) {
  Rng rng(24);
  const std::vector<std::pair<std::string, UncertainGraph>> graphs = {
      {"ring p=1/2", RingLattice(24, 3, 0.5)},
      {"ring p=1", RingLattice(16, 4, 1.0)},
      {"K11 p=1", RingLattice(11, 5, 1.0)},
      {"mixed", MixedGraph(&rng)},
      {"mixed 2", MixedGraph(&rng)},
      {"chung-lu", GenerateChungLu({.num_vertices = 80, .avg_degree = 10.0},
                                   ProbabilityDistribution::Uniform(0.05, 1.0),
                                   &rng)}};
  for (DiscrepancyType type :
       {DiscrepancyType::kAbsolute, DiscrepancyType::kRelative}) {
    EPhaseCounts total;
    for (const auto& [name, graph] : graphs) {
      const std::string label =
          name + (type == DiscrepancyType::kAbsolute ? " abs" : " rel");
      const EPhaseCounts counts =
          CheckAgainstFullScan(graph, type, &rng, label);
      total.scored += counts.scored;
      total.skipped += counts.skipped;
    }
    // Both branches of the scan ran.
    EXPECT_GT(total.scored, 0u);
    EXPECT_GT(total.skipped, 0u);
  }
}

TEST(EPhaseBoundTest, TiedOptimaAcrossEdgeOrientationsMatchFullScan) {
  // A star: centre 4 joined to 8 leaves at p = x, half the edges stored
  // centre-first and half leaf-first, plus an edge (9, 10) pulled out of
  // the backbone as the incumbent. Every leaf candidate sits at its exact
  // absolute optimum (4.5x, unclamped) with the same gain in exact
  // arithmetic, so the computed gains differ only in rounding by edge
  // orientation, and the bound is tight to the last bits: a bound without
  // its rounding slack skips a later candidate whose gain rounds above
  // the first's.
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    const double x = 0.01 + 0.2 * rng.NextDouble();
    std::vector<UncertainEdge> edges;
    for (VertexId leaf : {0u, 5u, 1u, 6u, 2u, 7u, 3u, 8u}) {
      if (leaf % 2 == 0) {
        edges.push_back({4, leaf, x});
      } else {
        edges.push_back({leaf, 4, x});
      }
    }
    edges.push_back({9, 10, x * rng.NextDouble()});
    const UncertainGraph g = UncertainGraph::FromEdges(11, std::move(edges));
    const EdgeId removed = 8;
    for (DiscrepancyType type :
         {DiscrepancyType::kAbsolute, DiscrepancyType::kRelative}) {
      SparseState state(g, {removed});
      state.RemoveEdge(removed);
      const EPhaseChoice got = EPhaseBestCandidate(state, 4, removed, type);
      const EPhaseChoice want = FullScan(state, 4, removed, type);
      ASSERT_EQ(got.edge, want.edge) << "trial " << trial;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.p),
                std::bit_cast<std::uint64_t>(want.p))
          << "trial " << trial;
    }
  }
}

TEST(EPhaseBoundTest, CancellingDiscrepanciesMatchFullScan) {
  // A star: centre 0 at delta 8q joined to 8 leaves at p = q, each leaf
  // over-assigned through a p = 0 backbone edge to delta -8q plus a few
  // ulps. Each candidate's A = d_0 + d_leaf cancels to a few ulps, so its
  // true gain is ~0 while its computed gain is rounding noise of order
  // u (8q)^2, and the incumbent (an isolated p = 0 edge) gains exactly 0.
  // Only the additive slack covers this noise: A^2 itself is ~0.
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const double q = 0.02 + 0.08 * rng.NextDouble();
    std::vector<UncertainEdge> edges;
    for (VertexId leaf = 1; leaf <= 8; ++leaf) {
      if (leaf % 2 == 0) {
        edges.push_back({0, leaf, q});
      } else {
        edges.push_back({leaf, 0, q});
      }
    }
    std::vector<EdgeId> backbone;
    for (VertexId leaf = 1; leaf <= 8; ++leaf) {
      backbone.push_back(static_cast<EdgeId>(edges.size()));
      edges.push_back({leaf, leaf + 8, 0.0});
    }
    const EdgeId removed = static_cast<EdgeId>(edges.size());
    backbone.push_back(removed);
    edges.push_back({17, 18, 0.0});
    const UncertainGraph g = UncertainGraph::FromEdges(19, std::move(edges));
    for (DiscrepancyType type :
         {DiscrepancyType::kAbsolute, DiscrepancyType::kRelative}) {
      SparseState state(g, backbone);
      const double d0 = state.DeltaAbs(0);
      for (EdgeId e = 8; e < 16; ++e) {
        const double ulps = static_cast<double>(rng.NextIndex(17)) - 8.0;
        state.SetProbability(e, q + d0 - ulps * 0x1p-52 * d0);
      }
      state.RemoveEdge(removed);
      const EPhaseChoice got = EPhaseBestCandidate(state, 0, removed, type);
      const EPhaseChoice want = FullScan(state, 0, removed, type);
      ASSERT_EQ(got.edge, want.edge) << "trial " << trial;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.p),
                std::bit_cast<std::uint64_t>(want.p))
          << "trial " << trial;
    }
  }
}

TEST(EPhaseBoundTest, ZeroWeightCandidateBeatsANegativeIncumbent) {
  // Relative discrepancy. The incumbent (x, y) = (0, 1) has x at expected
  // degree 10 with 5 still assigned (delta 5) and y at expected degree 1
  // with 1.4 assigned over two p = 0 edges (delta -0.4): Eq. (9) steps
  // (5 - 4) / 11 and the gain is negative (about -0.072). The candidate
  // (t, o) = (12, 13) joins two vertices of expected degree 0, whose
  // terms of D1 are 0: gain exactly 0, so it must win. Its bound has
  // B = 0 and A = 0, so only a strict comparison scores it.
  std::vector<UncertainEdge> edges = {{0, 1, 1.0}};
  for (VertexId d = 2; d < 11; ++d) edges.push_back({0, d, 1.0});
  edges.push_back({1, 11, 0.0});
  edges.push_back({1, 14, 0.0});
  edges.push_back({12, 13, 0.0});
  edges.push_back({12, 14, 0.0});
  const UncertainGraph g = UncertainGraph::FromEdges(15, std::move(edges));
  // Edge ids: 0 = (0,1), 1-9 = (0,2..10), 10 = (1,11), 11 = (1,14),
  // 12 = (12,13), 13 = (12,14).
  SparseState state(g, {0, 1, 2, 3, 4, 5, 10, 11});
  state.SetProbability(10, 0.7);
  state.SetProbability(11, 0.7);
  state.RemoveEdge(0);
  ASSERT_DOUBLE_EQ(state.DeltaAbs(0), 5.0);
  ASSERT_DOUBLE_EQ(state.DeltaAbs(1), -0.4);
  const DiscrepancyType rel = DiscrepancyType::kRelative;
  ASSERT_LT(InsertionGain(state, 0, CandidateProbability(state, 0, rel), rel),
            0.0);
  EPhaseCounts counts;
  const EPhaseChoice got = EPhaseBestCandidate(state, 12, 0, rel, &counts);
  EXPECT_EQ(got.edge, 12u);
  EXPECT_EQ(got.edge, FullScan(state, 12, 0, rel).edge);
  EXPECT_EQ(counts.scored, 2u);
  EXPECT_EQ(counts.skipped, 0u);
}

TEST(EPhaseBoundTest, RunEmdCountsItsCandidates) {
  Rng rng(5);
  UncertainGraph g = GenerateErdosRenyi(
      60, 300, ProbabilityDistribution::Uniform(0.1, 0.6), &rng);
  auto backbone = BuildBackbone(g, 0.4, BackboneOptions{}, &rng);
  ASSERT_TRUE(backbone.ok());
  SparseState state(g, backbone.value());
  const EmdStats stats = RunEmd(&state, EmdOptions{});
  EXPECT_GT(stats.candidates_scored, 0u);
  EXPECT_GT(stats.candidates_skipped, 0u);
}

// --- RunEmd's lazily settled vertex heap against an eager one. ---

/// RunEmd with the vertex heap kept eagerly: both endpoints updated after
/// each removal and both of the winner's after each insert, `top` read
/// off the heap. Candidates come from EPhaseBestCandidate; the M-phase
/// and the outer loop are RunEmd's.
EmdStats EagerEmd(SparseState* state, const EmdOptions& options) {
  const DiscrepancyType type = options.discrepancy;
  const UncertainGraph& graph = state->graph();
  GdbOptions m_phase = options.m_phase;
  m_phase.discrepancy = type;
  m_phase.rule = CutRule::Degrees();
  m_phase.h = options.h;
  EmdStats stats;
  stats.initial_objective = state->ObjectiveD1(type);
  double previous = stats.initial_objective;
  IndexedMaxHeap heap(graph.num_vertices());
  EPhaseCounts counts;
  const auto update = [&](VertexId x) {
    heap.Update(x, std::abs(state->Delta(x, type)));
    ++stats.heap_updates;
  };
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    heap.Clear();
    for (VertexId u = 0; u < graph.num_vertices(); ++u) {
      heap.Push(u, std::abs(state->Delta(u, type)));
    }
    for (EdgeId e : state->BackboneEdges()) {
      const UncertainEdge& ed = graph.edge(e);
      state->RemoveEdge(e);
      update(ed.u);
      update(ed.v);
      const EPhaseChoice best =
          EPhaseBestCandidate(*state, heap.Top(), e, type, &counts);
      state->AddEdge(best.edge, best.p);
      const UncertainEdge& bd = graph.edge(best.edge);
      update(bd.u);
      update(bd.v);
      if (best.edge != e) ++stats.swaps;
    }
    stats.sweeps += RunGdb(state, m_phase).sweeps;
    ++stats.iterations;
    const double objective = state->ObjectiveD1(type);
    const bool converged =
        std::abs(previous - objective) <=
        options.tolerance * std::max(1.0, std::abs(previous));
    previous = objective;
    if (converged) {
      stats.converged = true;
      break;
    }
  }
  stats.candidates_scored = counts.scored;
  stats.candidates_skipped = counts.skipped;
  stats.final_objective = previous;
  return stats;
}

TEST(EmdHeapTest, LazyHeapMatchesEagerHeap) {
  // Regular graphs (equal discrepancies everywhere, so the heap's tie
  // rule picks `top`), graphs with zero-degree and isolated vertices,
  // and random ones; random and spanning backbones; both discrepancy
  // types. The backbone, every p_hat bit, the swaps and the scan counts
  // must match the eager heap's.
  Rng rng(31);
  std::vector<std::pair<std::string, UncertainGraph>> graphs = {
      {"ring p=1/2", RingLattice(24, 3, 0.5)},
      {"ring p=1", RingLattice(16, 4, 1.0)},
      {"K11 p=1", RingLattice(11, 5, 1.0)},
      {"mixed", MixedGraph(&rng)},
      {"mixed 2", MixedGraph(&rng)}};
  graphs.emplace_back("erdos-renyi",
                      GenerateErdosRenyi(
                          60, 300, ProbabilityDistribution::Uniform(0.1, 0.6),
                          &rng));
  graphs.emplace_back(
      "chung-lu", GenerateChungLu({.num_vertices = 80, .avg_degree = 10.0},
                                  ProbabilityDistribution::Uniform(0.05, 1.0),
                                  &rng));
  for (const auto& [name, graph] : graphs) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<EdgeId> backbone;
      if (trial == 0) {
        auto spanning = BuildBackbone(graph, 0.4, BackboneOptions{}, &rng);
        if (spanning.ok()) backbone = spanning.value();
      }
      if (backbone.empty()) {
        for (EdgeId e = 0; e < graph.num_edges(); ++e) {
          if (rng.Bernoulli(trial == 2 ? 0.6 : 0.3)) backbone.push_back(e);
        }
      }
      for (DiscrepancyType type :
           {DiscrepancyType::kAbsolute, DiscrepancyType::kRelative}) {
        const std::string label =
            name + " trial " + std::to_string(trial) +
            (type == DiscrepancyType::kAbsolute ? " abs" : " rel");
        EmdOptions options;
        options.discrepancy = type;
        SparseState lazy_state(graph, backbone);
        SparseState eager_state(graph, backbone);
        const EmdStats lazy = RunEmd(&lazy_state, options);
        const EmdStats eager = EagerEmd(&eager_state, options);
        EXPECT_EQ(lazy.iterations, eager.iterations) << label;
        EXPECT_EQ(lazy.sweeps, eager.sweeps) << label;
        EXPECT_EQ(lazy.swaps, eager.swaps) << label;
        EXPECT_EQ(lazy.candidates_scored, eager.candidates_scored) << label;
        EXPECT_EQ(lazy.candidates_skipped, eager.candidates_skipped) << label;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(lazy.final_objective),
                  std::bit_cast<std::uint64_t>(eager.final_objective))
            << label;
        ASSERT_EQ(lazy_state.BackboneEdges(), eager_state.BackboneEdges())
            << label;
        for (EdgeId e = 0; e < graph.num_edges(); ++e) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(lazy_state.Probability(e)),
                    std::bit_cast<std::uint64_t>(eager_state.Probability(e)))
              << label << " edge " << e;
        }
        // Two settles per step, plus at most two more on a swap, where
        // the eager heap makes four every step.
        const std::size_t steps = static_cast<std::size_t>(lazy.iterations) *
                                  backbone.size();
        EXPECT_EQ(eager.heap_updates, 4 * steps) << label;
        EXPECT_GE(lazy.heap_updates, 2 * steps) << label;
        EXPECT_LE(lazy.heap_updates, 2 * steps + 2 * lazy.swaps) << label;
      }
    }
  }
}

}  // namespace
}  // namespace ugs
