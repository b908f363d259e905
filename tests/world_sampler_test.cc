#include "query/world_sampler.h"

#include <limits>

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace ugs {
namespace {

TEST(WorldSamplerTest, PresenceFlagSizes) {
  UncertainGraph g = testing_util::CompleteK4(0.5);
  Rng rng(1);
  std::vector<char> present;
  SampleWorld(g, &rng, &present);
  EXPECT_EQ(present.size(), g.num_edges());
}

TEST(WorldSamplerTest, EdgeFrequencyMatchesProbability) {
  UncertainGraph g = UncertainGraph::FromEdges(
      3, {{0, 1, 0.2}, {1, 2, 0.7}, {0, 2, 1.0}});
  Rng rng(2);
  std::vector<char> present;
  int counts[3] = {0, 0, 0};
  const int samples = 50000;
  for (int s = 0; s < samples; ++s) {
    SampleWorld(g, &rng, &present);
    for (int e = 0; e < 3; ++e) counts[e] += present[e];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(samples), 0.2, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(samples), 0.7, 0.01);
  EXPECT_EQ(counts[2], samples);  // p = 1 edge always present.
}

TEST(WorldSamplerTest, ZeroProbabilityEdgeNeverPresent) {
  UncertainGraph g = UncertainGraph::FromEdges(2, {{0, 1, 0.0}});
  Rng rng(3);
  std::vector<char> present;
  for (int s = 0; s < 1000; ++s) {
    SampleWorld(g, &rng, &present);
    EXPECT_EQ(present[0], 0);
  }
}

TEST(WorldSamplerTest, CountPresent) {
  std::vector<char> present{1, 0, 1, 1, 0};
  EXPECT_EQ(CountPresent(present), 3u);
}

TEST(McSamplesTest, UnitMeanAllValid) {
  McSamples s;
  s.num_units = 2;
  s.num_samples = 3;
  s.values = {1.0, 10.0, 2.0, 20.0, 3.0, 30.0};  // Sample-major.
  EXPECT_DOUBLE_EQ(s.UnitMean(0), 2.0);
  EXPECT_DOUBLE_EQ(s.UnitMean(1), 20.0);
}

TEST(McSamplesTest, EqualityIsBitwise) {
  McSamples s;
  s.num_units = 1;
  s.num_samples = 2;
  s.values = {0.0, 1.0};
  McSamples flipped = s;
  flipped.values[0] = -0.0;
  EXPECT_FALSE(s == flipped);
  s.values[1] = std::numeric_limits<double>::quiet_NaN();
  const McSamples copy = s;
  EXPECT_TRUE(s == copy);
}

TEST(McSamplesTest, ValidityFiltering) {
  McSamples s;
  s.num_units = 1;
  s.num_samples = 4;
  s.values = {5.0, 7.0, 100.0, 9.0};
  s.valid = {1, 1, 0, 1};
  EXPECT_DOUBLE_EQ(s.UnitMean(0), 7.0);
  EXPECT_EQ(s.UnitSamples(0), (std::vector<double>{5.0, 7.0, 9.0}));
}

TEST(McSamplesTest, NoValidSamplesGivesZeroMean) {
  McSamples s;
  s.num_units = 1;
  s.num_samples = 2;
  s.values = {5.0, 7.0};
  s.valid = {0, 0};
  EXPECT_DOUBLE_EQ(s.UnitMean(0), 0.0);
  EXPECT_TRUE(s.UnitSamples(0).empty());
}

}  // namespace
}  // namespace ugs
