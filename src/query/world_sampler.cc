#include "query/world_sampler.h"

#include <algorithm>

#include "util/check.h"

namespace ugs {

void SampleWorld(const UncertainGraph& graph, Rng* rng,
                 std::vector<char>* present) {
  const std::size_t m = graph.num_edges();
  present->resize(m);
  const std::span<const UncertainEdge> edges = graph.edges();
  for (std::size_t e = 0; e < m; ++e) {
    (*present)[e] = rng->Bernoulli(edges[e].p) ? 1 : 0;
  }
}

std::size_t CountPresent(const std::vector<char>& present) {
  std::size_t count = 0;
  for (char c : present) count += (c != 0);
  return count;
}

PossibleWorld::PossibleWorld(const UncertainGraph& graph)
    : graph_(&graph), present_(graph.num_edges(), 0) {}

void PossibleWorld::Rebuild() {
  if (bitmap_stale_) BuildBitmap();
  UGS_CHECK_EQ(present_.size(), graph_->num_edges());
  // Branch-free compaction: every id is written, only present ones
  // advance the cursor, so the scan never mispredicts on a random world.
  // The cursor never passes the present count, so count + 1 slots do.
  edges_.resize(CountPresent(present_) + 1);
  std::size_t k = 0;
  for (std::size_t e = 0; e < present_.size(); ++e) {
    edges_[k] = static_cast<EdgeId>(e);
    k += present_[e] != 0;
  }
  num_present_ = k;
}

void PossibleWorld::Adopt(std::span<const EdgeId> edges) {
  UGS_DCHECK(std::is_sorted(edges.begin(), edges.end()));
  UGS_DCHECK(edges.empty() || edges.back() < present_.size());
  edges_.assign(edges.begin(), edges.end());
  num_present_ = edges.size();
  bitmap_stale_ = true;
}

void PossibleWorld::BuildBitmap() const {
  std::fill(present_.begin(), present_.end(), 0);
  for (EdgeId e : edges()) present_[e] = 1;
  bitmap_stale_ = false;
}

double McSamples::UnitMean(std::size_t unit) const {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (IsValid(s, unit)) {
      sum += At(s, unit);
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

std::vector<double> McSamples::UnitMeans() const {
  std::vector<double> means(num_units);
  for (std::size_t u = 0; u < num_units; ++u) means[u] = UnitMean(u);
  return means;
}

std::vector<double> McSamples::UnitSamples(std::size_t unit) const {
  std::vector<double> out;
  out.reserve(num_samples);
  for (std::size_t s = 0; s < num_samples; ++s) {
    if (IsValid(s, unit)) out.push_back(At(s, unit));
  }
  return out;
}

}  // namespace ugs
