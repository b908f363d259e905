#include "graph/uncertain_graph.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

using testing_util::PaperFigure2Graph;

TEST(EdgeEntropyTest, DeterministicEdgesHaveZeroEntropy) {
  EXPECT_DOUBLE_EQ(EdgeEntropyBits(0.0), 0.0);
  EXPECT_DOUBLE_EQ(EdgeEntropyBits(1.0), 0.0);
}

TEST(EdgeEntropyTest, HalfIsOneBit) {
  EXPECT_NEAR(EdgeEntropyBits(0.5), 1.0, 1e-12);
}

TEST(EdgeEntropyTest, SymmetricAroundHalf) {
  EXPECT_NEAR(EdgeEntropyBits(0.3), EdgeEntropyBits(0.7), 1e-12);
  EXPECT_NEAR(EdgeEntropyBits(0.1), EdgeEntropyBits(0.9), 1e-12);
}

TEST(EdgeEntropyTest, KnownValue) {
  // H(0.3) = -(0.3 log2 0.3 + 0.7 log2 0.7) = 0.8813 bits.
  EXPECT_NEAR(EdgeEntropyBits(0.3), 0.881290899, 1e-8);
}

TEST(UncertainGraphTest, EmptyGraph) {
  UncertainGraph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.IsStructurallyConnected());
}

TEST(UncertainGraphTest, BasicAccessors) {
  UncertainGraph g = PaperFigure2Graph();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_DOUBLE_EQ(g.edge(0).p, 0.4);
  EXPECT_DOUBLE_EQ(g.probability(3), 0.1);
}

TEST(UncertainGraphTest, PaperFigure2EntropyIs385) {
  // The paper quotes H = 3.85 bits for the Figure 2 graph; this anchors
  // our choice of log base (DESIGN.md note 1).
  EXPECT_NEAR(PaperFigure2Graph().EntropyBits(), 3.85, 0.005);
}

TEST(UncertainGraphTest, ExpectedDegrees) {
  UncertainGraph g = PaperFigure2Graph();
  // u1 = 0: 0.4 + 0.2 + 0.2 = 0.8; u2: 0.4 + 0.1 = 0.5;
  // u3: 0.2 + 0.4 = 0.6; u4: 0.2 + 0.1 + 0.4 = 0.7.
  EXPECT_NEAR(g.ExpectedDegree(0), 0.8, 1e-12);
  EXPECT_NEAR(g.ExpectedDegree(1), 0.5, 1e-12);
  EXPECT_NEAR(g.ExpectedDegree(2), 0.6, 1e-12);
  EXPECT_NEAR(g.ExpectedDegree(3), 0.7, 1e-12);
}

TEST(UncertainGraphTest, StructuralDegrees) {
  UncertainGraph g = PaperFigure2Graph();
  EXPECT_EQ(g.Degree(0), 3u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 2u);
  EXPECT_EQ(g.Degree(3), 3u);
}

TEST(UncertainGraphTest, NeighborsSortedWithEdgeIds) {
  UncertainGraph g = PaperFigure2Graph();
  auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0].neighbor, 1u);
  EXPECT_EQ(nbrs[1].neighbor, 2u);
  EXPECT_EQ(nbrs[2].neighbor, 3u);
  EXPECT_EQ(nbrs[0].edge, 0u);
  EXPECT_EQ(nbrs[1].edge, 1u);
  EXPECT_EQ(nbrs[2].edge, 2u);
}

TEST(UncertainGraphTest, FindEdgeBothDirections) {
  UncertainGraph g = PaperFigure2Graph();
  EXPECT_EQ(g.FindEdge(0, 3), 2u);
  EXPECT_EQ(g.FindEdge(3, 0), 2u);
  EXPECT_EQ(g.FindEdge(1, 2), kInvalidEdge);
  EXPECT_EQ(g.FindEdge(0, 99), kInvalidEdge);
}

TEST(UncertainGraphTest, ExpectedEdgeCount) {
  EXPECT_NEAR(PaperFigure2Graph().ExpectedEdgeCount(), 1.3, 1e-12);
}

TEST(UncertainGraphTest, ConnectivityDetection) {
  EXPECT_TRUE(PaperFigure2Graph().IsStructurallyConnected());
  UncertainGraph disconnected =
      UncertainGraph::FromEdges(4, {{0, 1, 0.5}, {2, 3, 0.5}});
  EXPECT_FALSE(disconnected.IsStructurallyConnected());
  UncertainGraph isolated = UncertainGraph::FromEdges(3, {{0, 1, 0.5}});
  EXPECT_FALSE(isolated.IsStructurallyConnected());
}

TEST(UncertainGraphTest, SingleVertexIsConnected) {
  UncertainGraph g = UncertainGraph::FromEdges(1, {});
  EXPECT_TRUE(g.IsStructurallyConnected());
}

TEST(UncertainGraphTest, ZeroProbabilityEdgeAllowed) {
  // Sparsified graphs may carry p = 0 edges (GDB clamp rule).
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.0}});
  EXPECT_DOUBLE_EQ(g.probability(0), 0.0);
  EXPECT_DOUBLE_EQ(g.ExpectedDegree(0), 0.0);
  EXPECT_DOUBLE_EQ(g.EntropyBits(), 0.0);
}

StatusCode BuildCode(std::vector<UncertainEdge> edges) {
  return UncertainGraph::Build(3, std::move(edges)).status().code();
}

TEST(UncertainGraphBuildTest, RejectsSelfLoop) {
  EXPECT_EQ(BuildCode({{1, 1, 0.5}}), StatusCode::kInvalidArgument);
}

TEST(UncertainGraphBuildTest, RejectsOutOfRange) {
  EXPECT_EQ(BuildCode({{0, 3, 0.5}}), StatusCode::kInvalidArgument);
}

TEST(UncertainGraphBuildTest, RejectsBadProbability) {
  EXPECT_EQ(BuildCode({{0, 1, 1.5}}), StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildCode({{0, 1, -0.1}}), StatusCode::kInvalidArgument);
}

TEST(UncertainGraphBuildTest, RejectsDuplicateEitherOrientation) {
  EXPECT_EQ(BuildCode({{0, 1, 0.5}, {0, 1, 0.6}}),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildCode({{0, 1, 0.5}, {1, 0, 0.6}}),
            StatusCode::kInvalidArgument);
}

TEST(UncertainGraphBuildTest, BuildKeepsEveryAddedEdge) {
  Result<UncertainGraph> g =
      UncertainGraph::Build(3, {{0, 1, 0.5}, {1, 2, 0.25}});
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_NEAR(g->ExpectedDegree(1), 0.75, 1e-12);
}

TEST(UncertainGraphTest, CopySharesStorageAndStaysIndependent) {
  UncertainGraph original = PaperFigure2Graph();
  UncertainGraph copy(original);
  EXPECT_FALSE(copy.is_view());
  // The arrays are immutable, so a copy shares them.
  EXPECT_EQ(static_cast<const void*>(copy.edges().data()),
            static_cast<const void*>(original.edges().data()));
  UncertainGraph assigned;
  assigned = original;
  EXPECT_EQ(assigned.num_vertices(), 4u);
  EXPECT_EQ(assigned.FindEdge(1, 3), original.FindEdge(1, 3));
  // Mutating the copy rebuilds it; the original keeps its edges.
  ASSERT_TRUE(copy.ApplyUpdates({{{EdgeUpdateOp::kReweight, 0, 1, 0.9}}})
                  .ok());
  EXPECT_EQ(copy.probability(copy.FindEdge(0, 1)), 0.9);
  EXPECT_EQ(original.probability(original.FindEdge(0, 1)), 0.4);
  EXPECT_EQ(original.num_edges(), 5u);
}

TEST(UncertainGraphTest, MoveKeepsSpansValid) {
  UncertainGraph original = PaperFigure2Graph();
  const double entropy = original.EntropyBits();
  UncertainGraph moved(std::move(original));
  // Vector heap buffers are pointer-stable across moves, so the access
  // spans still alias the moved-to storage.
  EXPECT_EQ(moved.num_edges(), 5u);
  EXPECT_DOUBLE_EQ(moved.EntropyBits(), entropy);
  EXPECT_EQ(moved.Degree(3), 3u);
  EXPECT_NE(moved.FindEdge(0, 1), kInvalidEdge);
}

TEST(UncertainGraphTest, FromCsrViewAliasesExternalStorage) {
  UncertainGraph owned = PaperFigure2Graph();
  const CsrArrays arrays = owned.csr_arrays();
  UncertainGraph view = UncertainGraph::FromCsrView(
      arrays, std::make_shared<int>(0), 12345);
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.external_bytes(), 12345u);
  EXPECT_EQ(static_cast<const void*>(view.edges().data()),
            static_cast<const void*>(owned.edges().data()));
  EXPECT_EQ(view.Degree(0), owned.Degree(0));
  // A copy of a view is a view of the same storage.
  UncertainGraph copy(view);
  EXPECT_TRUE(copy.is_view());
  EXPECT_EQ(copy.external_bytes(), 12345u);
  EXPECT_EQ(static_cast<const void*>(copy.edges().data()),
            static_cast<const void*>(owned.edges().data()));
  // Mutating the copy moves it to the heap; the view is untouched.
  ASSERT_TRUE(copy.ApplyUpdates({{{EdgeUpdateOp::kDelete, 0, 1, 0.0}}}).ok());
  EXPECT_FALSE(copy.is_view());
  EXPECT_EQ(copy.num_edges(), 4u);
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.num_edges(), 5u);
  EXPECT_EQ(view.FindEdge(0, 1), 0u);
}

}  // namespace
}  // namespace ugs
