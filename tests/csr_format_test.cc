#include "graph/csr_format.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "query/graph_session.h"
#include "service/wire.h"
#include "tests/test_util.h"
#include "util/crc32.h"
#include "util/random.h"

namespace ugs {
namespace {

std::span<const std::uint8_t> AsBytes(const std::string& image) {
  return {reinterpret_cast<const std::uint8_t*>(image.data()), image.size()};
}

Status Validate(const std::string& image, CsrOpenOptions options = {}) {
  CsrArrays arrays;
  CsrFileInfo info;
  return ValidateCsrImage(AsBytes(image), options, &arrays, &info);
}

/// A moderately irregular graph exercising isolated vertices, hubs, and
/// varied probabilities.
UncertainGraph MixedGraph() {
  return UncertainGraph::FromEdges(9, {{0, 1, 0.25},
                                       {0, 2, 1.0},
                                       {0, 7, 0.5},
                                       {1, 2, 0.125},
                                       {2, 3, 0.75},
                                       {3, 4, 0.0625},
                                       {4, 7, 0.9375},
                                       {5, 7, 0.3125}});
  // Vertices 6 and 8 are isolated.
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/csrtest_" + name;
}

TEST(Crc32Test, MatchesIeeeCheckValue) {
  // The standard CRC-32 check value: CRC("123456789") = 0xCBF43926.
  EXPECT_EQ(Crc32(reinterpret_cast<const std::uint8_t*>("123456789"), 9),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(CsrFileImageTest, DeterministicAndAligned) {
  const UncertainGraph graph = MixedGraph();
  const std::string image = CsrFileImage(graph);
  EXPECT_EQ(image, CsrFileImage(graph));

  CsrArrays arrays;
  CsrFileInfo info;
  ASSERT_TRUE(ValidateCsrImage(AsBytes(image), {}, &arrays, &info).ok());
  EXPECT_EQ(info.version, kCsrVersion);
  EXPECT_EQ(info.flags, 0u);
  EXPECT_EQ(info.num_vertices, 9u);
  EXPECT_EQ(info.num_edges, 8u);
  EXPECT_EQ(info.file_size, image.size());
  for (int s = 0; s < kCsrNumSections; ++s) {
    EXPECT_EQ(info.sections[s].offset % kCsrSectionAlign, 0u)
        << CsrSectionName(static_cast<CsrSection>(s));
  }
  // The validated view aliases the image, bit-identical to the source.
  const CsrArrays source = graph.csr_arrays();
  ASSERT_EQ(arrays.edges.size(), source.edges.size());
  EXPECT_EQ(std::memcmp(arrays.edges.data(), source.edges.data(),
                        source.edges.size_bytes()),
            0);
  ASSERT_EQ(arrays.adjacency.size(), source.adjacency.size());
  EXPECT_EQ(std::memcmp(arrays.adjacency.data(), source.adjacency.data(),
                        source.adjacency.size_bytes()),
            0);
}

TEST(CsrFileImageTest, EmptyGraphRoundTrips) {
  const std::string image = CsrFileImage(UncertainGraph());
  CsrArrays arrays;
  ASSERT_TRUE(ValidateCsrImage(AsBytes(image), {}, &arrays, nullptr).ok());
  EXPECT_TRUE(arrays.edges.empty());
  EXPECT_TRUE(arrays.expected_degrees.empty());
}

TEST(CsrWriteReadTest, RoundTripsThroughDisk) {
  const UncertainGraph graph = MixedGraph();
  const std::string path = TempPath("roundtrip.ugsc");
  ASSERT_TRUE(WriteCsrGraph(graph, path).ok());

  Result<MappedGraph> mapped = MappedGraph::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const UncertainGraph& view = mapped->graph();
  EXPECT_TRUE(view.is_view());
  EXPECT_EQ(view.external_bytes(), mapped->mapped_bytes());
  EXPECT_EQ(view.num_vertices(), graph.num_vertices());
  EXPECT_EQ(view.num_edges(), graph.num_edges());

  // Bit-identical arrays, working adjacency, and a sound FindEdge.
  const CsrArrays a = graph.csr_arrays();
  const CsrArrays b = view.csr_arrays();
  EXPECT_EQ(std::memcmp(b.edges.data(), a.edges.data(), a.edges.size_bytes()),
            0);
  EXPECT_EQ(std::memcmp(b.expected_degrees.data(), a.expected_degrees.data(),
                        a.expected_degrees.size_bytes()),
            0);
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    ASSERT_EQ(view.Degree(u), graph.Degree(u)) << "vertex " << u;
  }
  for (const UncertainEdge& edge : graph.edges()) {
    EXPECT_NE(view.FindEdge(edge.u, edge.v), kInvalidEdge);
    EXPECT_NE(view.FindEdge(edge.v, edge.u), kInvalidEdge);
  }
  EXPECT_EQ(view.FindEdge(6, 8), kInvalidEdge);
}

TEST(CsrWriteReadTest, GraphOutlivesMappedGraphHandle) {
  const std::string path = TempPath("outlive.ugsc");
  ASSERT_TRUE(WriteCsrGraph(testing_util::PaperFigure2Graph(), path).ok());
  UncertainGraph view = [&] {
    Result<MappedGraph> mapped = MappedGraph::Open(path);
    EXPECT_TRUE(mapped.ok());
    return std::move(*mapped).TakeGraph();
  }();
  // The mapping is pinned by the view itself; reads stay valid after the
  // MappedGraph handle died (ASan would flag a stale mapping here).
  EXPECT_EQ(view.num_edges(), 5u);
  EXPECT_DOUBLE_EQ(view.edges()[0].p, 0.4);
}

TEST(CsrWriteReadTest, CopyOfViewSharesTheMapping) {
  const std::string path = TempPath("materialize.ugsc");
  ASSERT_TRUE(WriteCsrGraph(MixedGraph(), path).ok());
  Result<MappedGraph> mapped = MappedGraph::Open(path);
  ASSERT_TRUE(mapped.ok());
  UncertainGraph copy(mapped->graph());
  EXPECT_TRUE(copy.is_view());
  EXPECT_EQ(copy.external_bytes(), mapped->mapped_bytes());
  const CsrArrays a = mapped->graph().csr_arrays();
  EXPECT_EQ(static_cast<const void*>(copy.csr_arrays().edges.data()),
            static_cast<const void*>(a.edges.data()));
  // Mutating the copy builds it on the heap; the mapping is untouched.
  const std::string before(reinterpret_cast<const char*>(a.edges.data()),
                           a.edges.size_bytes());
  const UncertainEdge first = a.edges[0];
  ASSERT_TRUE(copy.ApplyUpdates({{{EdgeUpdateOp::kDelete, first.u, first.v,
                                   0.0}}})
                  .ok());
  EXPECT_FALSE(copy.is_view());
  EXPECT_EQ(copy.num_edges(), a.edges.size() - 1);
  EXPECT_TRUE(mapped->graph().is_view());
  ASSERT_EQ(mapped->graph().num_edges(), a.edges.size());
  EXPECT_EQ(std::memcmp(mapped->graph().edges().data(), before.data(),
                        before.size()),
            0);
}

// Every way of making a graph refuses the same faults: Build, the text
// loader (which ends in Build), and .ugsc structure validation (which
// applies Build's per-edge rule, CheckEdge, to the mapped edge section;
// a parallel edge there shows up as an unsorted adjacency row instead).
TEST(GraphValidityTest, EveryPathRefusesTheSameFaults) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<UncertainEdge> base = {
      {0, 1, 0.5}, {1, 2, 0.5}, {2, 3, 0.5}};
  struct Fault {
    const char* name;
    UncertainEdge edge;
    // A per-edge fault replaces edge 0, in the edge list and in the edge
    // section of a .ugsc image; a parallel edge is appended. The
    // probability faults keep edge 0's endpoints, so in the image only
    // the per-edge check can catch them.
    bool per_edge;
  };
  const Fault faults[] = {
      {"endpoint == n", {0, 4, 0.5}, true},
      {"u == v", {0, 0, 0.5}, true},
      {"p = -0.1", {0, 1, -0.1}, true},
      {"p = 1.5", {0, 1, 1.5}, true},
      {"p = NaN", {0, 1, nan}, true},
      {"(u, v) then (v, u)", {1, 0, 0.5}, false},
      {"(u, v) twice", {0, 1, 0.5}, false},
  };
  auto edge_list_text = [](const std::vector<UncertainEdge>& edges) {
    std::string text = "# vertices: 4\n";
    char line[96];
    for (const UncertainEdge& e : edges) {
      std::snprintf(line, sizeof(line), "%u %u %.17g\n", e.u, e.v, e.p);
      text += line;
    }
    return text;
  };
  const CsrOpenOptions no_crc{.verify_checksums = false,
                              .validate_structure = true};
  const std::string valid_image =
      CsrFileImage(UncertainGraph::FromEdges(4, base));
  CsrFileInfo info;
  // The unfaulted inputs pass every path.
  ASSERT_TRUE(UncertainGraph::Build(4, base).ok());
  ASSERT_TRUE(ParseEdgeList(edge_list_text(base)).ok());
  ASSERT_TRUE(
      ValidateCsrImage(AsBytes(valid_image), no_crc, nullptr, &info).ok());

  for (const Fault& fault : faults) {
    SCOPED_TRACE(fault.name);
    std::vector<UncertainEdge> edges = base;
    if (fault.per_edge) {
      edges[0] = fault.edge;
    } else {
      edges.push_back(fault.edge);
    }
    EXPECT_EQ(UncertainGraph::Build(4, edges).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_FALSE(ParseEdgeList(edge_list_text(edges)).ok());
    if (!fault.per_edge) continue;
    std::string image = valid_image;
    std::memcpy(image.data() + info.sections[0].offset, &fault.edge,
                sizeof(UncertainEdge));
    EXPECT_EQ(ValidateCsrImage(AsBytes(image), no_crc, nullptr, nullptr)
                  .code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(CsrOpenErrorsTest, MissingFileIsIOError) {
  Result<MappedGraph> mapped = MappedGraph::Open(TempPath("nope.ugsc"));
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
}

TEST(CsrOpenErrorsTest, EveryPrefixTruncationIsOutOfRange) {
  const std::string image = CsrFileImage(testing_util::PaperFigure2Graph());
  for (std::size_t len = 0; len < image.size(); ++len) {
    const Status status = Validate(image.substr(0, len));
    ASSERT_FALSE(status.ok()) << "prefix " << len;
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange)
        << "prefix " << len << ": " << status.ToString();
  }
}

TEST(CsrOpenErrorsTest, TruncatedFileOnDiskIsOutOfRange) {
  const std::string image = CsrFileImage(MixedGraph());
  const std::string path = TempPath("truncated.ugsc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(image.data(), 1, image.size() - 17, f);
  std::fclose(f);
  Result<MappedGraph> mapped = MappedGraph::Open(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kOutOfRange);
}

TEST(CsrOpenErrorsTest, TrailingGarbageIsInvalidArgument) {
  std::string image = CsrFileImage(MixedGraph());
  image.push_back('\0');
  const Status status = Validate(image);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CsrOpenErrorsTest, BadMagicIsInvalidArgument) {
  std::string image = CsrFileImage(MixedGraph());
  image[0] = 'X';
  EXPECT_EQ(Validate(image).code(), StatusCode::kInvalidArgument);
}

TEST(CsrOpenErrorsTest, ByteSwappedMagicIsFailedPrecondition) {
  // A big-endian writer would store the magic byte-swapped; that must be
  // diagnosed as an endianness mismatch, not generic corruption.
  std::string image = CsrFileImage(MixedGraph());
  std::swap(image[0], image[3]);
  std::swap(image[1], image[2]);
  const Status status = Validate(image);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(CsrOpenErrorsTest, FutureVersionIsFailedPrecondition) {
  std::string image = CsrFileImage(MixedGraph());
  image[4] = static_cast<char>(kCsrVersion + 1);
  const Status status = Validate(image);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(CsrOpenErrorsTest, UnknownFlagsAreFailedPrecondition) {
  std::string image = CsrFileImage(MixedGraph());
  image[6] = 0x01;
  const Status status = Validate(image);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(CsrOpenErrorsTest, HeaderCorruptionIsInvalidArgument) {
  // Flip a count byte: the header CRC catches it before any section read.
  std::string image = CsrFileImage(MixedGraph());
  image[8] = static_cast<char>(image[8] ^ 0x40);
  EXPECT_EQ(Validate(image).code(), StatusCode::kInvalidArgument);
}

TEST(CsrOpenErrorsTest, PerSectionCorruptionNamesTheSection) {
  const std::string image = CsrFileImage(MixedGraph());
  CsrArrays arrays;
  CsrFileInfo info;
  ASSERT_TRUE(ValidateCsrImage(AsBytes(image), {}, &arrays, &info).ok());
  for (int s = 0; s < kCsrNumSections; ++s) {
    const CsrSectionInfo& section = info.sections[s];
    ASSERT_GT(section.length, 0u);
    std::string corrupt = image;
    const std::size_t victim = section.offset + section.length / 2;
    corrupt[victim] = static_cast<char>(corrupt[victim] ^ 0x01);
    const Status status = Validate(corrupt);
    ASSERT_FALSE(status.ok()) << CsrSectionName(static_cast<CsrSection>(s));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.ToString().find(
                  CsrSectionName(static_cast<CsrSection>(s))),
              std::string::npos)
        << status.ToString();
  }
}

TEST(CsrOpenErrorsTest, StructuralSweepCatchesWhatChecksumsAreOff) {
  // With checksums disabled the structural sweep is the last line of
  // defense: corrupt an adjacency neighbor to an out-of-range vertex.
  const std::string image = CsrFileImage(MixedGraph());
  CsrArrays arrays;
  CsrFileInfo info;
  ASSERT_TRUE(ValidateCsrImage(AsBytes(image), {}, &arrays, &info).ok());
  std::string corrupt = image;
  const std::size_t adjacency_off =
      info.sections[static_cast<int>(CsrSection::kAdjacency)].offset;
  const std::uint32_t bogus = 0xFFFFFFFFu;
  std::memcpy(corrupt.data() + adjacency_off, &bogus, sizeof(bogus));
  const CsrOpenOptions no_crc{.verify_checksums = false,
                              .validate_structure = true};
  const Status status = Validate(corrupt, no_crc);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CsrOpenErrorsTest, CorruptOpenNeverSucceedsThroughGraphSession) {
  const std::string path = TempPath("session_corrupt.ugsc");
  std::string image = CsrFileImage(MixedGraph());
  image[image.size() / 2] =
      static_cast<char>(image[image.size() / 2] ^ 0x10);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(image.data(), 1, image.size(), f);
  std::fclose(f);
  Result<std::unique_ptr<GraphSession>> session = GraphSession::Open(path);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

/// The tentpole acceptance property: text -> pack -> mmap -> every query
/// kind, bit-identical to the text-parsed graph at 1/2/8 threads.
class CsrQueryEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(271828);
    std::vector<UncertainEdge> edges;
    const std::size_t n = 60;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = u + 1; v < n; ++v) {
        if (rng.Uniform(0.0, 1.0) < 0.08) {
          edges.push_back({u, v, 0.05 + 0.9 * rng.Uniform(0.0, 1.0)});
        }
      }
    }
    graph_ = UncertainGraph::FromEdges(n, std::move(edges));
    text_path_ = TempPath("equiv.txt");
    ugsc_path_ = TempPath("equiv.ugsc");
    ASSERT_TRUE(SaveEdgeList(graph_, text_path_).ok());
    ASSERT_TRUE(WriteCsrGraph(graph_, ugsc_path_).ok());
  }

  static std::vector<QueryRequest> Requests() {
    std::vector<QueryRequest> requests;
    for (const char* name :
         {"reliability", "connectivity", "shortest-path", "pagerank",
          "clustering", "knn", "most-probable-path"}) {
      QueryRequest request;
      request.query = name;
      request.pairs = {{0, 7}, {3, 41}, {12, 55}};
      request.sources = {0, 9, 33};
      request.k = 4;
      request.num_samples = 64;
      request.seed = 20260807;
      requests.push_back(std::move(request));
    }
    return requests;
  }

  UncertainGraph graph_;
  std::string text_path_;
  std::string ugsc_path_;
};

TEST_F(CsrQueryEquivalenceTest, MappedQueriesBitIdenticalAcrossThreads) {
  for (int threads : {1, 2, 8}) {
    GraphSessionOptions options;
    options.engine.num_threads = threads;
    Result<std::unique_ptr<GraphSession>> text_session =
        GraphSession::Open(text_path_, options);
    ASSERT_TRUE(text_session.ok()) << text_session.status().ToString();
    Result<std::unique_ptr<GraphSession>> mmap_session =
        GraphSession::Open(ugsc_path_, options);
    ASSERT_TRUE(mmap_session.ok()) << mmap_session.status().ToString();
    EXPECT_FALSE((*text_session)->graph().is_view());
    EXPECT_TRUE((*mmap_session)->graph().is_view());

    for (const QueryRequest& request : Requests()) {
      Result<QueryResult> from_text = (*text_session)->Run(request);
      Result<QueryResult> from_mmap = (*mmap_session)->Run(request);
      ASSERT_TRUE(from_text.ok())
          << request.query << ": " << from_text.status().ToString();
      ASSERT_TRUE(from_mmap.ok())
          << request.query << ": " << from_mmap.status().ToString();
      EXPECT_TRUE(PayloadEquals(*from_text, *from_mmap))
          << request.query << " at " << threads << " threads diverged:\n"
          << ResultToJson(*from_text, /*include_timing=*/false) << "\nvs\n"
          << ResultToJson(*from_mmap, /*include_timing=*/false);
      EXPECT_EQ(ResultToJson(*from_text, /*include_timing=*/false),
                ResultToJson(*from_mmap, /*include_timing=*/false));
    }
  }
}

}  // namespace
}  // namespace ugs
