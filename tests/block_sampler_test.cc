// The lane-parallel block sampler (query/block_sampler.h): its worlds
// have the possible-world distribution (per-edge inclusion, independence
// across lanes and across edges, reliability against the exact oracle),
// the engine maps sample s to a fixed (block, lane) whatever the request
// shape, and PossibleWorld::Adopt installs a world without stale bits.

#include "query/block_sampler.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "query/clustering.h"
#include "query/exact.h"
#include "query/reliability.h"
#include "query/sample_engine.h"
#include "query/shortest_path.h"
#include "query/world_sampler.h"
#include "util/thread_pool.h"

namespace ugs {
namespace {

constexpr std::size_t kLanes = BlockWorldSampler::kLanes;

/// Presence flags of one lane's world.
std::vector<char> LaneBitmap(const BlockWorldSampler& sampler,
                             std::size_t lane, std::size_t num_edges) {
  std::vector<char> present(num_edges, 0);
  for (EdgeId e : sampler.Lane(lane)) present[e] = 1;
  return present;
}

/// 5-sigma band of a Bernoulli(p) frequency over n trials.
double FiveSigma(double p, double n) {
  return 5.0 * std::sqrt(p * (1 - p) / n);
}

TEST(BlockSamplerTest, InclusionFrequencyMatchesProbability) {
  // Thresholds from near 0 to near 1, including p = 1/2 (P = 2^63, a
  // single set bit) and p with P bits beyond the branch-free eight.
  const std::vector<double> ps = {0.001, 0.015, 0.1,  0.156, 0.3,
                                  0.5,   0.55,  0.75, 0.9,   0.999};
  std::vector<UncertainEdge> edges;
  edges.reserve(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    edges.push_back({static_cast<VertexId>(i),
                     static_cast<VertexId>(i + 1), ps[i]});
  }
  UncertainGraph g = UncertainGraph::FromEdges(ps.size() + 1, edges);
  BlockWorldSampler sampler;
  Rng rng(2);
  const int kBlocks = 20000;
  std::vector<double> counts(g.num_edges(), 0.0);
  for (int b = 0; b < kBlocks; ++b) {
    sampler.SampleBlock(g, &rng);
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (EdgeId e : sampler.Lane(l)) counts[e] += 1.0;
    }
  }
  const double n = static_cast<double>(kBlocks) * kLanes;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double p = g.edge(e).p;
    EXPECT_NEAR(counts[e] / n, p, FiveSigma(p, n)) << "edge " << e;
  }
}

TEST(BlockSamplerTest, LanesAndEdgesAreIndependent) {
  // Three edges at p = 0.3. Within a block, two lanes of one edge, and
  // the count of present lanes per edge (Binomial(16, p): its variance
  // exposes any correlation among lanes). Across edges, one lane's two
  // edges.
  const double p = 0.3;
  UncertainGraph g =
      UncertainGraph::FromEdges(4, {{0, 1, p}, {1, 2, p}, {2, 3, p}});
  BlockWorldSampler sampler;
  Rng rng(3);
  const int kBlocks = 40000;
  std::vector<double> lane_pairs(kLanes - 1, 0.0);
  double edge_pairs = 0.0;
  double count_sum = 0.0;
  double count_sq_sum = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    sampler.SampleBlock(g, &rng);
    std::vector<std::vector<char>> worlds;
    worlds.reserve(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      worlds.push_back(LaneBitmap(sampler, l, g.num_edges()));
    }
    double count = 0.0;
    for (std::size_t l = 0; l < kLanes; ++l) {
      count += worlds[l][1];
      if (l + 1 < kLanes) lane_pairs[l] += worlds[l][1] && worlds[l + 1][1];
      edge_pairs += worlds[l][0] && worlds[l][2];
    }
    count_sum += count;
    count_sq_sum += count * count;
  }
  const double q = p * p;
  for (std::size_t l = 0; l + 1 < kLanes; ++l) {
    EXPECT_NEAR(lane_pairs[l] / kBlocks, q, FiveSigma(q, kBlocks))
        << "lanes " << l << "," << l + 1;
  }
  const double trials = static_cast<double>(kBlocks) * kLanes;
  EXPECT_NEAR(edge_pairs / trials, q, FiveSigma(q, trials));
  const double mean = count_sum / kBlocks;
  const double variance = count_sq_sum / kBlocks - mean * mean;
  EXPECT_NEAR(mean, kLanes * p, 0.05);
  // Independent lanes: 16 p (1 - p) = 3.36. Perfectly correlated lanes
  // would give 16^2 p (1 - p) = 53.8.
  EXPECT_NEAR(variance, kLanes * p * (1 - p), 0.15);
}

TEST(BlockSamplerTest, CertainAndImpossibleEdgesDrawNoBits) {
  UncertainGraph g =
      UncertainGraph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 0.0}, {2, 3, 1.0}});
  BlockWorldSampler sampler;
  Rng rng(1);
  Rng untouched = rng;
  for (int b = 0; b < 50; ++b) {
    sampler.SampleBlock(g, &rng);
    for (std::size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(std::vector<EdgeId>(sampler.Lane(l).begin(),
                                    sampler.Lane(l).end()),
                (std::vector<EdgeId>{0, 2}));
    }
  }
  EXPECT_EQ(rng.Next64(), untouched.Next64());
}

TEST(BlockSamplerTest, EmptyGraph) {
  UncertainGraph g = UncertainGraph::FromEdges(2, {});
  BlockWorldSampler sampler;
  Rng rng(7);
  sampler.SampleBlock(g, &rng);
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_TRUE(sampler.Lane(l).empty());
  }
}

TEST(BlockSamplerTest, MeanPresentCountMatchesExpectation) {
  Rng g_rng(5);
  UncertainGraph g = GenerateErdosRenyi(
      50, 500, ProbabilityDistribution::TruncatedExponential(12.5), &g_rng);
  double variance = 0.0;
  for (const UncertainEdge& edge : g.edges()) {
    variance += edge.p * (1 - edge.p);
  }
  BlockWorldSampler sampler;
  Rng rng(6);
  const int kBlocks = 400;
  double total = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    sampler.SampleBlock(g, &rng);
    for (std::size_t l = 0; l < kLanes; ++l) {
      total += static_cast<double>(sampler.Lane(l).size());
    }
  }
  const double worlds = static_cast<double>(kBlocks) * kLanes;
  EXPECT_NEAR(total / worlds, g.ExpectedEdgeCount(),
              5.0 * std::sqrt(variance / worlds));
}

TEST(BlockSamplerTest, ReliabilityMatchesExactOracle) {
  // The 14-edge graph of world_kernel_pinned_test.
  UncertainGraph g = UncertainGraph::FromEdges(
      8, {{0, 1, 0.5},  {0, 2, 0.3},  {1, 2, 0.7},  {1, 3, 0.2},
          {2, 3, 0.9},  {2, 4, 0.4},  {3, 4, 0.6},  {3, 5, 0.15},
          {4, 5, 0.8},  {4, 6, 0.35}, {5, 6, 0.55}, {5, 7, 0.25},
          {6, 7, 0.65}, {0, 7, 0.45}});
  const std::vector<VertexPair> pairs = {{0, 5}, {1, 7}, {3, 6}, {0, 4}};
  SampleEngine engine(
      SampleEngineOptions{.num_threads = 2, .use_skip_sampler = true});
  const int kSamples = 20000;
  Rng rng(11);
  McSamples samples = McReliability(g, pairs, kSamples, &rng, engine);
  ThreadPool pool(1);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const double exact =
        ExactReliability(g, pairs[i].s, pairs[i].t, pool);
    const double sigma = std::sqrt(exact * (1 - exact) / kSamples);
    EXPECT_NEAR(samples.UnitMean(i), exact, 4.0 * sigma) << "pair " << i;
  }
}

TEST(BlockSamplerTest, WorldDependsOnlyOnSeedAndIndex) {
  // World s is lane s % 16 of block s / 16 under SampleRng(base, s / 16),
  // whatever num_samples, batch_size or thread count the request has.
  UncertainGraph g = [] {
    Rng rng(12);
    return GenerateErdosRenyi(
        40, 300, ProbabilityDistribution::Uniform(0.05, 0.6), &rng);
  }();
  const std::uint64_t seed = 77;
  const std::uint64_t base = Rng(seed).Next64();
  auto expected = [&](std::size_t s) {
    BlockWorldSampler sampler;
    Rng block_rng = SampleEngine::SampleRng(base, s / kLanes);
    sampler.SampleBlock(g, &block_rng);
    return LaneBitmap(sampler, s % kLanes, g.num_edges());
  };
  const auto record = []() -> SampleEngine::WorldEval {
    return [](PossibleWorld& world, double* row, char*) {
      for (EdgeId e : world.edges()) row[e] = 1.0;
    };
  };
  for (int batch_size : {1, 5, 32, 64}) {
    for (int threads : {1, 2}) {
      SampleEngine engine(SampleEngineOptions{.num_threads = threads,
                                              .batch_size = batch_size,
                                              .use_skip_sampler = true});
      for (int num_samples : {1, 15, 16, 17, 40}) {
        Rng rng(seed);
        McSamples out = engine.Run(g, g.num_edges(), num_samples, &rng,
                                   false, record);
        for (std::size_t s = 0; s < out.num_samples; ++s) {
          const std::vector<char> want = expected(s);
          for (EdgeId e = 0; e < g.num_edges(); ++e) {
            ASSERT_EQ(out.At(s, e), want[e] ? 1.0 : 0.0)
                << "batch " << batch_size << " threads " << threads
                << " samples " << num_samples << " world " << s << " edge "
                << e;
          }
        }
      }
    }
  }
}

/// A 5-cycle 0-1-2-3-4 plus the chord (2, 0), stored larger endpoint
/// first, which closes the triangle 0-1-2 (edges 0, 1, 5).
UncertainGraph CycleWithChord() {
  return UncertainGraph::FromEdges(5, {{0, 1, 0.5},
                                       {1, 2, 0.5},
                                       {2, 3, 0.5},
                                       {3, 4, 0.5},
                                       {0, 4, 0.5},
                                       {2, 0, 0.5}});
}

std::vector<double> Clustering(const PossibleWorld& world) {
  std::vector<double> cc(world.graph().num_vertices());
  ClusteringScratch scratch;
  LocalClusteringOnWorld(world, cc.data(), &scratch);
  return cc;
}

TEST(BlockSamplerTest, AdoptAfterBitmapEditLeavesNoStaleBits) {
  UncertainGraph g = CycleWithChord();
  PossibleWorld world(g);
  PairSearchScratch pair;
  const std::vector<EdgeId> first = {0, 2};
  world.Adopt(first);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 0, 1, &pair), 1);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 2, &pair), kUnreachable);
  EXPECT_EQ(world.present(), (std::vector<char>{1, 0, 1, 0, 0, 0}));
  // An evaluator's edit, e.g. pivot conditioning: set edges outside the
  // adopted list, clear one inside it, without calling Rebuild().
  world.mutable_present()[3] = 1;
  world.mutable_present()[4] = 1;
  world.mutable_present()[0] = 0;
  const std::vector<EdgeId> second = {0, 1, 5};
  world.Adopt(second);
  // The kernels read the world before anything else does. On the edited
  // bitmap {2, 3, 4}, 1 would be isolated and 0-4-3 a path.
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 2, &pair), 1);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 0, 3, &pair), kUnreachable);
  // The triangle's rows come from the new list, not the first.
  EXPECT_EQ(Clustering(world), (std::vector<double>{1, 1, 1, 0, 0}));
  EXPECT_EQ(world.present(), (std::vector<char>{1, 1, 0, 0, 0, 1}));
  EXPECT_EQ(std::vector<EdgeId>(world.edges().begin(), world.edges().end()),
            second);
  world.Adopt({});
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 2, &pair), kUnreachable);
  EXPECT_EQ(Clustering(world), std::vector<double>(5, 0.0));
  EXPECT_EQ(world.present(), (std::vector<char>(6, 0)));
  EXPECT_TRUE(world.edges().empty());
}

TEST(BlockSamplerTest, EditAfterAdoptStartsFromTheAdoptedEdges) {
  // Adopt leaves the bitmap stale; the first mutable_present() writes it
  // from the adopted list, so an edit followed by Rebuild() sees both.
  UncertainGraph g = CycleWithChord();
  PossibleWorld world(g);
  PairSearchScratch pair;
  world.mutable_present()[3] = 1;  // Dropped by the Adopt below.
  const std::vector<EdgeId> adopted = {0, 2, 4};
  world.Adopt(adopted);
  world.mutable_present()[2] = 0;
  world.mutable_present()[1] = 1;
  world.mutable_present()[5] = 1;
  world.Rebuild();
  EXPECT_EQ(std::vector<EdgeId>(world.edges().begin(), world.edges().end()),
            (std::vector<EdgeId>{0, 1, 4, 5}));
  // Edge 3 did not survive the Adopt; edges 0 and 4 came from it.
  EXPECT_EQ(ShortestDistanceOnWorld(world, 0, 3, &pair), kUnreachable);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 4, &pair), 2);
  EXPECT_EQ(Clustering(world), (std::vector<double>{1.0 / 3.0, 1, 1, 0, 0}));
  // Rebuild() straight after Adopt() keeps the adopted list.
  world.Adopt(adopted);
  world.Rebuild();
  EXPECT_EQ(std::vector<EdgeId>(world.edges().begin(), world.edges().end()),
            adopted);
  EXPECT_EQ(world.present(), (std::vector<char>{1, 0, 1, 0, 1, 0}));
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 4, &pair), 2);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 2, 3, &pair), 1);
  EXPECT_EQ(ShortestDistanceOnWorld(world, 1, 2, &pair), kUnreachable);
}

}  // namespace
}  // namespace ugs
