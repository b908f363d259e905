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
  adjacency_built_ = false;
}

void PossibleWorld::Adopt(std::span<const EdgeId> edges) {
  UGS_DCHECK(std::is_sorted(edges.begin(), edges.end()));
  UGS_DCHECK(edges.empty() || edges.back() < present_.size());
  edges_.assign(edges.begin(), edges.end());
  num_present_ = edges.size();
  bitmap_stale_ = true;
  adjacency_built_ = false;
}

void PossibleWorld::BuildBitmap() const {
  std::fill(present_.begin(), present_.end(), 0);
  for (EdgeId e : edges()) present_[e] = 1;
  bitmap_stale_ = false;
}

void PossibleWorld::BuildAdjacency() const {
  const UncertainGraph& graph = *graph_;
  const std::size_t n = graph.num_vertices();
  // Two counting-sort passes over the present edges only. The first
  // scatters each edge into both endpoints' rows in edge-id order; the
  // second transposes that (symmetric) adjacency by walking its rows in
  // vertex order, which leaves every row ascending -- the graph's own
  // neighbor order. When the walk reaches v, row v holds exactly v's
  // neighbors below v, so its cursor then is v's higher-neighbor split.
  offsets_.assign(n + 1, 0);
  for (EdgeId e : edges()) {
    ++offsets_[graph.edge(e).u + 1];
    ++offsets_[graph.edge(e).v + 1];
  }
  for (std::size_t u = 0; u < n; ++u) offsets_[u + 1] += offsets_[u];
  unsorted_.resize(offsets_[n]);
  neighbors_.resize(offsets_[n]);
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e : edges()) {
    const UncertainEdge& ed = graph.edge(e);
    unsorted_[cursor_[ed.u]++] = ed.v;
    unsorted_[cursor_[ed.v]++] = ed.u;
  }
  cursor_.assign(offsets_.begin(), offsets_.end() - 1);
  higher_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    higher_[v] = cursor_[v];
    for (std::size_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      neighbors_[cursor_[unsorted_[i]]++] = v;
    }
  }
  adjacency_built_ = true;
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
