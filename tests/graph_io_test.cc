#include "graph/graph_io.h"

#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

TEST(GraphIoTest, ParseSimpleEdgeList) {
  Result<UncertainGraph> r = ParseEdgeList("0 1 0.5\n1 2 0.25\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_vertices(), 3u);
  EXPECT_EQ(r->num_edges(), 2u);
  EXPECT_DOUBLE_EQ(r->edge(1).p, 0.25);
}

TEST(GraphIoTest, SkipsCommentsAndBlankLines) {
  Result<UncertainGraph> r =
      ParseEdgeList("# a comment\n\n0 1 0.5\n# another\n1 2 0.3\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_edges(), 2u);
}

TEST(GraphIoTest, VertexCountHeaderRespected) {
  Result<UncertainGraph> r =
      ParseEdgeList("# vertices: 10\n0 1 0.5\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), 10u);
}

TEST(GraphIoTest, InfersVertexCountFromMaxId) {
  Result<UncertainGraph> r = ParseEdgeList("0 7 0.5\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), 8u);
}

TEST(GraphIoTest, MalformedLineFails) {
  Result<UncertainGraph> r = ParseEdgeList("0 1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, NegativeIdFails) {
  Result<UncertainGraph> r = ParseEdgeList("-1 2 0.5\n");
  ASSERT_FALSE(r.ok());
}

TEST(GraphIoTest, VertexIdsPastTheVertexIdRangeFail) {
  // 2^32 + 1 and 2^32 would wrap to 1 and 0; 2^32 - 1 leaves no room
  // for the vertex count. The id is refused before the graph is sized.
  const std::pair<std::string, std::string> cases[] = {
      {"4294967297 0 0.5\n", "line 1"},
      {"4294967296 1 0.5\n", "line 1"},
      {"0 1 0.5\n1 4294967295 0.5\n", "line 2"}};
  for (const auto& [text, line] : cases) {
    Result<UncertainGraph> r = ParseEdgeList(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError) << text;
    EXPECT_NE(r.status().message().find("vertex id out of range at " + line),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(GraphIoTest, VertexCountPastTheVertexIdRangeFails) {
  // Refused before anything is sized by the count.
  for (const std::string count : {"4611686018427387904", "4294967296"}) {
    Result<UncertainGraph> r =
        ParseEdgeList("0 1 0.5\n# vertices: " + count + "\n");
    ASSERT_FALSE(r.ok()) << count;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    EXPECT_NE(r.status().message().find("vertex count " + count +
                                        " at line 2"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(GraphIoTest, BadProbabilityFails) {
  Result<UncertainGraph> r = ParseEdgeList("0 1 1.5\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphIoTest, DuplicateEdgeFails) {
  Result<UncertainGraph> r = ParseEdgeList("0 1 0.5\n1 0 0.5\n");
  ASSERT_FALSE(r.ok());
}

TEST(GraphIoTest, SelfLoopFails) {
  Result<UncertainGraph> r = ParseEdgeList("2 2 0.5\n");
  ASSERT_FALSE(r.ok());
}

TEST(GraphIoTest, EmptyInputGivesEmptyGraph) {
  Result<UncertainGraph> r = ParseEdgeList("# nothing\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), 0u);
  EXPECT_EQ(r->num_edges(), 0u);
}

TEST(GraphIoTest, LoadMissingFileFails) {
  Result<UncertainGraph> r = LoadEdgeList("/nonexistent/path/graph.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(GraphIoTest, SaveLoadRoundTrip) {
  UncertainGraph g = testing_util::PaperFigure2Graph();
  std::string path = ::testing::TempDir() + "/ugs_roundtrip.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Result<UncertainGraph> r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_vertices(), g.num_vertices());
  ASSERT_EQ(r->num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(r->edge(e).u, g.edge(e).u);
    EXPECT_EQ(r->edge(e).v, g.edge(e).v);
    EXPECT_DOUBLE_EQ(r->edge(e).p, g.edge(e).p);
  }
  std::remove(path.c_str());
}

TEST(GraphIoTest, RoundTripPreservesTrailingIsolatedVertices) {
  UncertainGraph g = UncertainGraph::FromEdges(6, {{0, 1, 0.5}});
  std::string path = ::testing::TempDir() + "/ugs_isolated.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Result<UncertainGraph> r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_vertices(), 6u);
  std::remove(path.c_str());
}

TEST(GraphIoTest, RoundTripFullPrecision) {
  UncertainGraph g =
      UncertainGraph::FromEdges(2, {{0, 1, 0.123456789012345678}});
  std::string path = ::testing::TempDir() + "/ugs_precision.txt";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  Result<UncertainGraph> r = LoadEdgeList(path);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->edge(0).p, g.edge(0).p);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ugs
