#include "query/pagerank.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/check.h"

namespace ugs {
namespace {

constexpr std::size_t kLanes = 4;

/// Lays the world out in `scratch` (see PageRankScratch) and returns S.
std::size_t BuildSlices(const PossibleWorld& world,
                        PageRankScratch* scratch) {
  const UncertainGraph& graph = world.graph();
  const std::size_t n = graph.num_vertices();
  std::vector<std::uint32_t>& degree = scratch->degree;
  degree.assign(n, 0);
  for (EdgeId e : world.edges()) {
    const UncertainEdge& ed = graph.edge(e);
    ++degree[ed.u];
    ++degree[ed.v];
  }

  // Counting sort by descending degree, ties by ascending id: first[k]
  // ends up as the next free slot of degree max - k.
  const std::uint32_t max_degree =
      *std::max_element(degree.begin(), degree.end());
  std::vector<std::uint32_t>& first = scratch->first;
  first.assign(max_degree + 1, 0);
  for (std::uint32_t k : degree) ++first[max_degree - k];
  const std::size_t groups = (n - first[max_degree] + kLanes - 1) / kLanes;
  const std::size_t num_slots = groups * kLanes;
  std::uint32_t next_free = 0;
  for (std::uint32_t& f : first) {
    const std::uint32_t count = f;
    f = next_free;
    next_free += count;
  }

  // cursor[s] holds slot s's row length until the layout below.
  std::vector<std::size_t>& cursor = scratch->cursor;
  std::vector<std::uint32_t>& slot = scratch->slot;
  std::vector<double>& degree_or_one = scratch->degree_or_one;
  cursor.resize(num_slots);
  slot.resize(n);
  degree_or_one.resize(n);
  scratch->isolated.clear();
  for (VertexId v = 0; v < n; ++v) {
    if (degree[v] == 0) {
      slot[v] = static_cast<std::uint32_t>(num_slots);
      degree_or_one[v] = 1.0;
      scratch->isolated.push_back(v);
    } else {
      slot[v] = first[max_degree - degree[v]]++;
      cursor[slot[v]] = degree[v];
      degree_or_one[v] = static_cast<double>(degree[v]);
    }
  }

  // A group's rows are as long as its first, longest, one.
  std::vector<std::size_t>& group_end = scratch->group_end;
  group_end.resize(groups);
  std::size_t end = 0;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t length = cursor[g * kLanes];
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      cursor[g * kLanes + lane] = end + lane;
    }
    end += kLanes * length;
    group_end[g] = end;
  }
  std::vector<std::uint32_t>& terms = scratch->terms;
  terms.assign(end, static_cast<std::uint32_t>(num_slots + 1));
  for (EdgeId e : world.edges()) {
    const UncertainEdge& ed = graph.edge(e);
    const std::uint32_t su = slot[ed.u];
    const std::uint32_t sv = slot[ed.v];
    terms[cursor[sv]] = su;
    cursor[sv] += kLanes;
    terms[cursor[su]] = sv;
    cursor[su] += kLanes;
  }
  return num_slots;
}

}  // namespace

void PageRankOnWorld(const PossibleWorld& world,
                     const PageRankOptions& options, double* rank,
                     PageRankScratch* scratch) {
  const std::size_t n = world.graph().num_vertices();
  UGS_CHECK(n > 0);
  const double d = options.damping;
  const std::size_t num_slots = BuildSlices(world, scratch);
  const std::uint32_t* slot = scratch->slot.data();
  const double* degree_or_one = scratch->degree_or_one.data();
  const std::vector<VertexId>& isolated = scratch->isolated;
  const std::uint32_t* terms = scratch->terms.data();
  const std::vector<std::size_t>& group_end = scratch->group_end;
  scratch->sums.resize(num_slots + 2);
  scratch->contrib.resize(num_slots + 2);
  double* sums = scratch->sums.data();
  double* contrib = scratch->contrib.data();

  // contrib[slot of an isolated vertex] is written but never read: no
  // row lists that slot.
  const double initial = 1.0 / static_cast<double>(n);
  for (VertexId v = 0; v < n; ++v) {
    rank[v] = initial;
    contrib[slot[v]] = d * rank[v] / degree_or_one[v];
  }
  contrib[num_slots + 1] = 0.0;
  double dangling = 0.0;
  for (VertexId v : isolated) dangling += rank[v];
  for (int it = 0; it < options.max_iterations; ++it) {
    const double base =
        (1.0 - d) / static_cast<double>(n) +
        d * dangling / static_cast<double>(n);

    // Four independent add chains per group, so their latencies overlap.
    std::size_t begin = 0;
    for (std::size_t g = 0; g < group_end.size(); ++g) {
      double a0 = base;
      double a1 = base;
      double a2 = base;
      double a3 = base;
      for (std::size_t k = begin; k < group_end[g]; k += kLanes) {
        a0 += contrib[terms[k]];
        a1 += contrib[terms[k + 1]];
        a2 += contrib[terms[k + 2]];
        a3 += contrib[terms[k + 3]];
      }
      sums[g * kLanes] = a0;
      sums[g * kLanes + 1] = a1;
      sums[g * kLanes + 2] = a2;
      sums[g * kLanes + 3] = a3;
      begin = group_end[g];
    }
    sums[num_slots] = base;

    // The change chain leaves room for the next iteration's divisions.
    double change = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      const double next = sums[slot[v]];
      change += std::abs(next - rank[v]);
      rank[v] = next;
      contrib[slot[v]] = d * next / degree_or_one[v];
    }
    if (change < options.tolerance) break;
    dangling = 0.0;
    for (VertexId v : isolated) dangling += rank[v];
  }
}

McSamples McPageRank(const UncertainGraph& graph, int num_samples, Rng* rng,
                     const PageRankOptions& options,
                     const SampleEngine& engine) {
  return engine.Run(
      graph, graph.num_vertices(), num_samples, rng, /*track_valid=*/false,
      [options]() -> SampleEngine::WorldEval {
        auto scratch = std::make_shared<PageRankScratch>();
        return [options, scratch](PossibleWorld& world, double* row, char*) {
          PageRankOnWorld(world, options, row, scratch.get());
        };
      });
}

}  // namespace ugs
