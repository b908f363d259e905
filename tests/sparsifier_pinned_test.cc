// Pinned outputs of every sparsifier. Each output is reduced to a 64-bit
// hash of its exact bytes: the original edge ids it kept, in order, and
// the probability p-hat it assigned to each. The expected hashes were
// recorded before the GDB/EMD kernels were last rewritten for speed
// (entropy guard, inlined k = 1 step and E-phase scan); any change to an
// update rule's arithmetic, its evaluation order, a tie rule, the
// backbone or an RNG stream shows up here as a hash mismatch, even when
// every quality test still passes. The twitter-like EMD rows were
// re-recorded once, when EMD's M-phases got their 1e-2 stopping rule;
// the erdos-renyi EMD runs already stopped every M-phase after one
// sweep, so their bytes did not change.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "gen/generators.h"
#include "sparsify/sparsifier.h"

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

std::uint64_t HashOutput(const SparsifyOutput& output) {
  std::vector<double> p_hat;
  p_hat.reserve(output.graph.num_edges());
  for (const UncertainEdge& e : output.graph.edges()) p_hat.push_back(e.p);
  Fnv64 h;
  h.Vector(output.original_edge_ids);
  h.Vector(p_hat);
  return h.value();
}

/// The sparsify_eval regime at small scale: 200 vertices, ~4.7k edges,
/// E[p] ~ 0.15 with a near-deterministic minority.
const UncertainGraph& TwitterGraph() {
  static const UncertainGraph* graph =
      new UncertainGraph(MakeTwitterLike(0.1, 43));
  return *graph;
}

/// Uniform p on [0.05, 0.7): many edges near 1/2, where GDB's entropy
/// guard decides most updates.
const UncertainGraph& ErdosRenyiGraph() {
  static const UncertainGraph* graph = [] {
    Rng rng(2019);
    return new UncertainGraph(GenerateErdosRenyi(
        120, 1200, ProbabilityDistribution::Uniform(0.05, 0.7), &rng));
  }();
  return *graph;
}

struct PinnedCase {
  const char* graph;  // "twitter-like" (alpha 0.16) or "erdos-renyi" (0.3).
  const char* method;
  std::uint64_t seed;
  std::uint64_t hash;
};

// Expected hashes, one per (graph, method, seed). NI runs with no pool,
// so it calibrates on one thread.
const PinnedCase kCases[] = {
    {"twitter-like", "GDBA", 7, 0x4d792c32339f21ba},
    {"twitter-like", "GDBA", 20261018, 0xfdd0eea15498fce7},
    {"twitter-like", "GDBR", 7, 0x9752b28666dfbc7},
    {"twitter-like", "GDBR", 20261018, 0x3c9b654ae3c16e10},
    {"twitter-like", "GDBA2", 7, 0x5e2e57d6cdec9f97},
    {"twitter-like", "GDBA2", 20261018, 0x552869658ce33ff8},
    {"twitter-like", "GDBAn", 7, 0x30529df859e7ebf3},
    {"twitter-like", "GDBAn", 20261018, 0xe0529ba16330f7bd},
    {"twitter-like", "GDBA-t", 7, 0xab86cecefc76806a},
    {"twitter-like", "GDBA-t", 20261018, 0xf7f3a0ff2d9a05f8},
    {"twitter-like", "EMDA", 7, 0x9e1f5b29ffc281a},
    {"twitter-like", "EMDA", 20261018, 0x67006c4239884eaa},
    {"twitter-like", "EMDR", 7, 0x4f7e73f43a710b7e},
    {"twitter-like", "EMDR", 20261018, 0xcb11af02a7c59cb1},
    {"twitter-like", "EMDA-t", 7, 0xb7adcbbd608781a7},
    {"twitter-like", "EMDA-t", 20261018, 0xa579e43f21d2b97f},
    {"twitter-like", "EMDR-t", 7, 0x82d26c5cc79e4b1d},
    {"twitter-like", "EMDR-t", 20261018, 0xe1e4bd705d547e30},
    {"twitter-like", "LP", 7, 0x10c7180a80e23bac},
    {"twitter-like", "LP", 20261018, 0x26976743e25b1170},
    {"twitter-like", "LP-t", 7, 0xb3d55a27f1ab940e},
    {"twitter-like", "LP-t", 20261018, 0xe4f3c8b13f0ebf79},
    {"twitter-like", "NI", 7, 0x992b35de484c9b62},
    {"twitter-like", "NI", 20261018, 0x10cd33874373f9fe},
    {"twitter-like", "SS", 7, 0xaaf695563588430b},
    {"twitter-like", "SS", 20261018, 0x2e68fdab4f77c936},
    {"erdos-renyi", "GDBA", 7, 0x4bb449805d3dc033},
    {"erdos-renyi", "GDBA", 20261018, 0x2b5320b7c0cea9fe},
    {"erdos-renyi", "GDBR", 7, 0xca322e8a541153d9},
    {"erdos-renyi", "GDBR", 20261018, 0x807210e9132502f5},
    {"erdos-renyi", "GDBA2", 7, 0xcca1e57906e9127b},
    {"erdos-renyi", "GDBA2", 20261018, 0x3334d0222093ed5b},
    {"erdos-renyi", "GDBAn", 7, 0xb1973e0f9217258f},
    {"erdos-renyi", "GDBAn", 20261018, 0x91a0e800fec4775e},
    {"erdos-renyi", "GDBA-t", 7, 0x537509c3ade769f3},
    {"erdos-renyi", "GDBA-t", 20261018, 0x29c7ecf0d6477ce4},
    {"erdos-renyi", "EMDA", 7, 0xd7faa55ed2ea4a4f},
    {"erdos-renyi", "EMDA", 20261018, 0x546c40a520b7f443},
    {"erdos-renyi", "EMDR", 7, 0x7c510dbc83bd0059},
    {"erdos-renyi", "EMDR", 20261018, 0x9d1e7f3ef5d2b5ab},
    {"erdos-renyi", "EMDA-t", 7, 0x351919ad04fb96db},
    {"erdos-renyi", "EMDA-t", 20261018, 0x65b3fee2eb4b8528},
    {"erdos-renyi", "EMDR-t", 7, 0xc31357533d9a99f},
    {"erdos-renyi", "EMDR-t", 20261018, 0x79600f01fa98c89f},
    {"erdos-renyi", "LP", 7, 0xe6723059174a55db},
    {"erdos-renyi", "LP", 20261018, 0xdf2a991b153662f1},
    {"erdos-renyi", "LP-t", 7, 0xc41b64ddd8bfd260},
    {"erdos-renyi", "LP-t", 20261018, 0xfef0faa1829602ec},
    {"erdos-renyi", "NI", 7, 0x355b2dbc4463b8ed},
    {"erdos-renyi", "NI", 20261018, 0x63b7c11d8ba00151},
    {"erdos-renyi", "SS", 7, 0xd80f27b03e7bd5e6},
    {"erdos-renyi", "SS", 20261018, 0xceeabb75088b3670},
};

std::string CaseName(const PinnedCase& c) {
  return std::string(c.graph) + "/" + c.method + "/seed " +
         std::to_string(c.seed);
}

TEST(SparsifierPinnedTest, OutputsMatchPinnedHashes) {
  for (const PinnedCase& c : kCases) {
    const bool twitter = std::string(c.graph) == "twitter-like";
    const UncertainGraph& graph = twitter ? TwitterGraph() : ErdosRenyiGraph();
    Result<std::unique_ptr<Sparsifier>> method = MakeSparsifierByName(c.method);
    ASSERT_TRUE(method.ok()) << CaseName(c);
    Rng rng(c.seed);
    Result<SparsifyOutput> output =
        (*method)->Sparsify(graph, twitter ? 0.16 : 0.3, &rng);
    ASSERT_TRUE(output.ok()) << CaseName(c) << ": "
                             << output.status().ToString();
    EXPECT_EQ(HashOutput(*output), c.hash)
        << CaseName(c) << " hash 0x" << std::hex << HashOutput(*output);
  }
}

}  // namespace
}  // namespace ugs
