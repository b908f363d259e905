#include "graph/graph_io.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

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

TEST(GraphIoTest, ReadFailureFails) {
  // A directory opens but cannot be read; that is an error, not an
  // empty graph.
  Result<UncertainGraph> r = LoadEdgeList(::testing::TempDir());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().message().find("read failure"), std::string::npos)
      << r.status().ToString();
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

TEST(GraphIoTest, UnreadableVertexCountFails) {
  // A count operator>> cannot read used to be skipped, and the graph was
  // then sized by its largest id, dropping trailing isolated vertices.
  for (const std::string value : {"99999999999999999999999", "abc", ""}) {
    Result<UncertainGraph> r =
        ParseEdgeList("0 1 0.5\n# vertices: " + value + "\n");
    ASSERT_FALSE(r.ok()) << value;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError);
    EXPECT_EQ(r.status().message(),
              "unreadable vertex count at line 2: '# vertices: " + value + "'");
  }
}

TEST(GraphIoTest, VertexCountPastTheInputSizeFails) {
  // Each would size ~10^6 to ~4 * 10^9 vertices from a line of text;
  // the bound is max(input bytes, 2^20).
  for (const std::string text :
       {"# vertices: 5000000\n0 1 0.5\n", "# vertices: 4000000000\n0 0 0.5\n",
        "0 4294967294 0.5\n"}) {
    Result<UncertainGraph> r = ParseEdgeList(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kIOError) << text;
    EXPECT_NE(r.status().message().find("exceeds 1048576"), std::string::npos)
        << r.status().ToString();
  }
  // The floor itself is allowed.
  Result<UncertainGraph> r = ParseEdgeList("# vertices: 1048576\n0 1 0.5\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_vertices(), 1048576u);
}

// ---------------------------------------------------------------------------
// LoadEdgeList reads its file 64 KiB at a time: lines that cross a read,
// or outgrow the buffer, must load as ParseEdgeList parses the same text.

constexpr std::size_t kChunk = std::size_t{64} << 10;

std::string WriteTemp(const std::string& text) {
  const std::string path = ::testing::TempDir() + "/ugs_chunked.txt";
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

void ExpectLoadEqualsParse(const std::string& text) {
  const std::string path = WriteTemp(text);
  Result<UncertainGraph> loaded = LoadEdgeList(path);
  Result<UncertainGraph> parsed = ParseEdgeList(text);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.ok(), parsed.ok())
      << (loaded.ok() ? "OK" : loaded.status().ToString()) << " vs "
      << (parsed.ok() ? "OK" : parsed.status().ToString());
  if (!parsed.ok()) {
    EXPECT_EQ(loaded.status().code(), parsed.status().code());
    EXPECT_EQ(loaded.status().message(), parsed.status().message());
    return;
  }
  ASSERT_EQ(loaded->num_vertices(), parsed->num_vertices());
  ASSERT_EQ(loaded->num_edges(), parsed->num_edges());
  for (EdgeId e = 0; e < parsed->num_edges(); ++e) {
    EXPECT_EQ(loaded->edge(e).u, parsed->edge(e).u);
    EXPECT_EQ(loaded->edge(e).v, parsed->edge(e).v);
    EXPECT_EQ(loaded->edge(e).p, parsed->edge(e).p);
  }
}

/// A comment line that brings the text to `size` bytes.
std::string PadTo(std::size_t size) {
  std::string line(size, 'x');
  line.front() = '#';
  line.back() = '\n';
  return line;
}

TEST(GraphIoChunkTest, LineStraddlingAReadLoadsAsParsed) {
  const std::string edges = "12 13 0.123456789012345678\n7 9 1e-3\n";
  // Every cut through the edge lines, at the first and second read.
  for (std::size_t cut = 0; cut <= edges.size(); ++cut) {
    ExpectLoadEqualsParse(PadTo(kChunk - cut) + edges);
    ExpectLoadEqualsParse(PadTo(2 * kChunk - cut) + edges + edges.substr(0, 9));
  }
}

TEST(GraphIoChunkTest, CrLfSplitAcrossAReadLoadsAsParsed) {
  const std::string line = "3 4 0.25\r\n";
  for (std::size_t cut = 0; cut <= line.size(); ++cut) {
    ExpectLoadEqualsParse(PadTo(kChunk - cut) + line + line + "5 6 0.5\r\n");
  }
  // A malformed CRLF line quotes its '\r'.
  const std::string path = WriteTemp(PadTo(kChunk - 1) + "\r\n3 x 0.25\r\n");
  Result<UncertainGraph> r = LoadEdgeList(path);
  std::remove(path.c_str());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "malformed edge at line 3: '3 x 0.25\r'");
}

TEST(GraphIoChunkTest, LineLongerThanTheBufferLoadsAsParsed) {
  std::string columns;
  while (columns.size() < 3 * kChunk) columns += " extra";
  ExpectLoadEqualsParse("0 1 0.5" + columns + "\n1 2 0.25\n");
  ExpectLoadEqualsParse("0 1 0.5\n1 2 0.25" + columns);
  ExpectLoadEqualsParse("0 1 0.5\n2 x 0.25" + columns + "\n");  // Quoted.
  ExpectLoadEqualsParse(PadTo(5 * kChunk) + "0 1 0.5\n");
}

TEST(GraphIoChunkTest, EdgeCasesLoadAsParsed) {
  ExpectLoadEqualsParse("0 1 0.5\n1 2 0.25");  // No final newline.
  ExpectLoadEqualsParse(PadTo(kChunk) + "0 1 0.5");
  ExpectLoadEqualsParse("");
  ExpectLoadEqualsParse("# only\n# comments\n");
  ExpectLoadEqualsParse("# only comments, no newline");
  ExpectLoadEqualsParse("# vertices: 9\n" + PadTo(kChunk) + "0 1 0.5\n");
}

TEST(GraphIoChunkTest, MalformedLinePastTheFirstReadReportsItsLine) {
  std::string text;
  for (int i = 0; i < 20000; ++i) {
    text += std::to_string(i) + " " + std::to_string(i + 1) + " 0.5\n";
  }
  ASSERT_GT(text.size(), 2 * kChunk);
  text += "20000 x 0.5\n";
  const std::string path = WriteTemp(text);
  Result<UncertainGraph> r = LoadEdgeList(path);
  std::remove(path.c_str());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_EQ(r.status().message(),
            "malformed edge at line 20001: '20000 x 0.5'");
  ExpectLoadEqualsParse(text);
}

}  // namespace
}  // namespace ugs
