#include "query/shortest_path.h"

#include <cstdlib>
#include <memory>

#include "util/check.h"

namespace ugs {

int ShortestDistanceOnWorld(const PossibleWorld& world, VertexId s, VertexId t,
                            PairSearchScratch* scratch) {
  const UncertainGraph& graph = world.graph();
  const std::size_t n = graph.num_vertices();
  UGS_CHECK(s < n && t < n);
  if (s == t) return 0;
  const std::vector<char>& present = world.present();
  std::vector<int>& label = scratch->label;
  std::vector<VertexId>* queue = scratch->queue;
  label.resize(n, 0);
  label[s] = 1;
  label[t] = -1;
  queue[0].assign(1, s);
  queue[1].assign(1, t);
  std::size_t begin[2] = {0, 0};  // Start of each side's frontier.
  int depth[2] = {0, 0};          // Depth of each side's frontier.
  int best = kUnreachable;
  // Once a level meets the other side, every shorter path would have met
  // it in an earlier level, so the minimum over this level is the
  // distance.
  while (best == kUnreachable) {
    const int side =
        queue[0].size() - begin[0] <= queue[1].size() - begin[1] ? 0 : 1;
    const std::size_t end = queue[side].size();
    if (begin[side] == end) break;  // No path: one side ran out.
    const int reached = side == 0 ? depth[0] + 2 : -(depth[1] + 2);
    for (std::size_t i = begin[side]; i < end; ++i) {
      for (const AdjacencyEntry& a : graph.Neighbors(queue[side][i])) {
        if (!present[a.edge]) continue;
        const int other = label[a.neighbor];
        if (other == 0) {
          label[a.neighbor] = reached;
          queue[side].push_back(a.neighbor);
        } else if ((other < 0) == (side == 0)) {
          // The other side reached it at depth |other| - 1.
          const int d = depth[side] + std::abs(other);
          if (best == kUnreachable || d < best) best = d;
        }
      }
    }
    begin[side] = end;
    ++depth[side];
  }
  for (const std::vector<VertexId>& reset : scratch->queue) {
    for (VertexId v : reset) label[v] = 0;
  }
  return best;
}

std::vector<VertexPair> SampleDistinctPairs(std::size_t num_vertices,
                                            std::size_t count, Rng* rng) {
  UGS_CHECK(num_vertices >= 2);
  std::vector<VertexPair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    VertexId s = static_cast<VertexId>(rng->NextIndex(num_vertices));
    VertexId t;
    do {
      t = static_cast<VertexId>(rng->NextIndex(num_vertices));
    } while (t == s);
    pairs.push_back({s, t});
  }
  return pairs;
}

McSamples McShortestPath(const UncertainGraph& graph,
                         const std::vector<VertexPair>& pairs,
                         int num_samples, Rng* rng,
                         const SampleEngine& engine) {
  return engine.Run(
      graph, pairs.size(), num_samples, rng, /*track_valid=*/true,
      [&pairs]() -> SampleEngine::WorldEval {
        auto scratch = std::make_shared<PairSearchScratch>();
        return [&pairs, scratch](PossibleWorld& world, double* row,
                                 char* valid) {
          for (std::size_t i = 0; i < pairs.size(); ++i) {
            const int d = ShortestDistanceOnWorld(world, pairs[i].s,
                                                  pairs[i].t, scratch.get());
            if (d != kUnreachable) {
              row[i] = static_cast<double>(d);
              valid[i] = 1;
            }
          }
        };
      });
}

}  // namespace ugs
