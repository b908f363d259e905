// Pinned outputs of the possible-world kernels. Every sampled or
// enumerated query result below is reduced to a 64-bit hash of its exact
// bytes (McSamples::values and ::valid, the per-unit means, the scalar).
// The expected hashes were recorded before the kernels were last
// rewritten (the kSkipSampler rows when the block sampler replaced the
// geometric-skip sampler behind that estimator); any change to a
// kernel's arithmetic, its summation order, the world stream or the
// stratified/exact drivers shows up here as a hash mismatch even when
// both sides of a GraphSession-vs-free-function comparison moved
// together.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "query/graph_session.h"
#include "query/shortest_path.h"

namespace ugs {
namespace {

/// FNV-1a over raw bytes.
class Fnv64 {
 public:
  void Bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void Vector(const std::vector<T>& v) {
    const std::uint64_t size = v.size();
    Bytes(&size, sizeof(size));
    Bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t HashResult(const QueryResult& result) {
  Fnv64 h;
  h.Vector(result.samples.values);
  h.Vector(result.samples.valid);
  h.Vector(result.means);
  if (result.has_scalar) h.Bytes(&result.scalar, sizeof(result.scalar));
  return h.value();
}

/// A small graph in the serving regime (E[p] ~ 0.15, near-deterministic
/// minority): 300 vertices, a few thousand edges.
const UncertainGraph& TwitterGraph() {
  static const UncertainGraph* graph =
      new UncertainGraph(MakeTwitterLike(0.1, 43));
  return *graph;
}

/// 8 vertices, 14 edges: exact enumeration runs 4 chunks of 4096 worlds.
const UncertainGraph& TinyGraph() {
  static const UncertainGraph* graph = [] {
    std::vector<UncertainEdge> edges = {
        {0, 1, 0.5},  {0, 2, 0.3},  {1, 2, 0.7},  {1, 3, 0.2},
        {2, 3, 0.9},  {2, 4, 0.4},  {3, 4, 0.6},  {3, 5, 0.15},
        {4, 5, 0.8},  {4, 6, 0.35}, {5, 6, 0.55}, {5, 7, 0.25},
        {6, 7, 0.65}, {0, 7, 0.45}};
    return new UncertainGraph(UncertainGraph::FromEdges(8, std::move(edges)));
  }();
  return *graph;
}

struct PinnedCase {
  const char* graph;  // "twitter" or "tiny".
  const char* query;
  Estimator estimator;
  std::uint64_t hash;
  /// PageRank's iteration cap. At 20 only an edgeless world stops on the
  /// 1e-10 tolerance; at 200 every world stops on it (after 34-138).
  int pagerank_iterations = 20;
};

QueryRequest RequestFor(const PinnedCase& c, const UncertainGraph& graph) {
  QueryRequest request;
  request.query = c.query;
  request.estimator = c.estimator;
  request.num_samples = 40;
  request.seed = 20261017;
  request.num_pivot_edges = 4;
  request.pagerank.max_iterations = c.pagerank_iterations;
  // Pairs among the highest-degree vertices, so that reliability and
  // distance are neither always 0 nor always 1 on the sparse graph.
  std::vector<VertexId> hubs(graph.num_vertices());
  for (VertexId v = 0; v < hubs.size(); ++v) hubs[v] = v;
  std::stable_sort(hubs.begin(), hubs.end(), [&](VertexId a, VertexId b) {
    return graph.Degree(a) > graph.Degree(b);
  });
  request.pairs = {{hubs[0], hubs[1]}, {hubs[1], hubs[2]}, {hubs[3], hubs[0]}};
  request.pairs.push_back({hubs[2], hubs[4]});
  request.pairs.push_back({hubs[0], hubs.back()});
  return request;
}

std::string CaseName(const PinnedCase& c) {
  std::string name = std::string(c.graph) + "/" + c.query + "/" +
                     EstimatorName(c.estimator);
  if (std::string(c.query) == "pagerank") {
    name += '/';
    name += std::to_string(c.pagerank_iterations);
  }
  return name;
}

// Expected hashes, one per (graph, query, estimator[, PageRank cap]).
const PinnedCase kCases[] = {
    {"twitter", "reliability", Estimator::kSampled, 0xebea625c20cbff45},
    {"twitter", "reliability", Estimator::kSkipSampler, 0xaaa81f890b9bc7f5},
    {"twitter", "reliability", Estimator::kStratified, 0x3318b4db9214ba7d},
    {"twitter", "shortest-path", Estimator::kSampled, 0xda4598fa12177f8d},
    {"twitter", "shortest-path", Estimator::kSkipSampler, 0xc37b199919743883},
    {"twitter", "shortest-path", Estimator::kStratified, 0xd0b69fb8b698875f},
    {"twitter", "pagerank", Estimator::kSampled, 0x8910c2ae0a6c67a8},
    {"twitter", "pagerank", Estimator::kSkipSampler, 0xf81420d79667a902},
    {"twitter", "pagerank", Estimator::kSampled, 0x8fbc05bfcae27f4a, 200},
    {"twitter", "pagerank", Estimator::kSkipSampler, 0xb391159aba4c21a3, 200},
    {"twitter", "clustering", Estimator::kSampled, 0x20c59ef8de593e52},
    {"twitter", "clustering", Estimator::kSkipSampler, 0xb3de1d6a887c06ee},
    {"twitter", "connectivity", Estimator::kSampled, 0x608aa9db216c1834},
    {"twitter", "connectivity", Estimator::kSkipSampler, 0x606f29db215476fc},
    {"twitter", "connectivity", Estimator::kStratified, 0x83e4d94764d07145},
    {"tiny", "reliability", Estimator::kSampled, 0xc5266a88165f77a9},
    {"tiny", "reliability", Estimator::kSkipSampler, 0x671d430783e2a5a7},
    {"tiny", "reliability", Estimator::kStratified, 0x109221476f8a20bb},
    {"tiny", "reliability", Estimator::kExact, 0xbbd15d95d95c0b40},
    {"tiny", "shortest-path", Estimator::kSampled, 0xd7f110d160ff20cc},
    {"tiny", "shortest-path", Estimator::kSkipSampler, 0x818d7e4f26e98436},
    {"tiny", "shortest-path", Estimator::kStratified, 0xbdd407373cf988a4},
    {"tiny", "shortest-path", Estimator::kExact, 0x79eea4efaf0dd430},
    {"tiny", "pagerank", Estimator::kSampled, 0xbf3c5c7e006c3ec4},
    {"tiny", "pagerank", Estimator::kSkipSampler, 0x3631e7f4cae3d7dc},
    {"tiny", "pagerank", Estimator::kSampled, 0x2bb7d77dcc910c86, 200},
    {"tiny", "pagerank", Estimator::kSkipSampler, 0x7dd1c2605c3d6a08, 200},
    {"tiny", "clustering", Estimator::kSampled, 0x7ec7fe35b972d7eb},
    {"tiny", "clustering", Estimator::kSkipSampler, 0x9a2c28212295aca0},
    {"tiny", "connectivity", Estimator::kSampled, 0xed841784f873eb8},
    {"tiny", "connectivity", Estimator::kSkipSampler, 0xe381452ac66bd829},
    {"tiny", "connectivity", Estimator::kStratified, 0x2ff8b307406f74bc},
    {"tiny", "connectivity", Estimator::kExact, 0xe4294575bdc71754},
};

class WorldKernelPinnedTest : public ::testing::TestWithParam<int> {};

// The same hashes at every thread count and batch size: the pins double
// as a determinism matrix over the rewritten kernels.
TEST_P(WorldKernelPinnedTest, OutputsMatchPinnedHashes) {
  GraphSessionOptions options;
  options.engine.num_threads = GetParam();
  options.engine.batch_size = GetParam() == 1 ? 32 : 3;
  GraphSession twitter(TwitterGraph(), options);
  GraphSession tiny(TinyGraph(), options);
  for (const PinnedCase& c : kCases) {
    const GraphSession& session =
        std::string(c.graph) == "twitter" ? twitter : tiny;
    Result<QueryResult> result = session.Run(RequestFor(c, session.graph()));
    ASSERT_TRUE(result.ok()) << CaseName(c) << ": "
                             << result.status().ToString();
    ASSERT_EQ(result->estimator, c.estimator) << CaseName(c);
    EXPECT_EQ(HashResult(*result), c.hash)
        << CaseName(c) << " hash 0x" << std::hex << HashResult(*result);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, WorldKernelPinnedTest,
                         ::testing::Values(1, 2, 8));

}  // namespace
}  // namespace ugs
