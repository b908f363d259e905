#include "query/shortest_path.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "util/check.h"

namespace ugs {

void BfsOnWorld(const PossibleWorld& world, VertexId source, BfsScratch* bfs) {
  const std::size_t n = world.graph().num_vertices();
  UGS_CHECK(source < n);
  bfs->dist.assign(n, kUnreachable);
  bfs->queue.resize(n);
  int* d = bfs->dist.data();
  VertexId* q = bfs->queue.data();
  d[source] = 0;
  q[0] = source;
  std::size_t head = 0;
  std::size_t tail = 1;
  while (head < tail) {
    const VertexId u = q[head++];
    const int next = d[u] + 1;
    for (VertexId w : world.Neighbors(u)) {
      if (d[w] == kUnreachable) {
        d[w] = next;
        q[tail++] = w;
      }
    }
  }
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
  // Group pair indices by source so one BFS serves all of them; built
  // once and shared read-only by every worker.
  auto by_source = std::make_shared<
      std::unordered_map<VertexId, std::vector<std::size_t>>>();
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    (*by_source)[pairs[i].s].push_back(i);
  }

  return engine.Run(
      graph, pairs.size(), num_samples, rng, /*track_valid=*/true,
      [&pairs, by_source]() -> SampleEngine::WorldEval {
        auto scratch = std::make_shared<BfsScratch>();
        return [&pairs, by_source, scratch](PossibleWorld& world, double* row,
                                            char* valid) {
          for (const auto& [source, indices] : *by_source) {
            BfsOnWorld(world, source, scratch.get());
            for (std::size_t i : indices) {
              int d = scratch->dist[pairs[i].t];
              if (d != kUnreachable) {
                row[i] = static_cast<double>(d);
                valid[i] = 1;
              }
            }
          }
        };
      });
}

}  // namespace ugs
