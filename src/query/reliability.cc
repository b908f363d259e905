#include "query/reliability.h"

#include <memory>

#include "util/check.h"

namespace ugs {

void ConnectOnWorld(const PossibleWorld& world, UnionFind* uf) {
  const UncertainGraph& graph = world.graph();
  uf->Reset();
  for (EdgeId e : world.edges()) uf->Union(graph.edge(e).u, graph.edge(e).v);
}

McSamples McReliability(const UncertainGraph& graph,
                        const std::vector<VertexPair>& pairs,
                        int num_samples, Rng* rng,
                        const SampleEngine& engine) {
  return engine.Run(
      graph, pairs.size(), num_samples, rng, /*track_valid=*/false,
      [&graph, &pairs]() -> SampleEngine::WorldEval {
        auto uf = std::make_shared<UnionFind>(graph.num_vertices());
        return [&pairs, uf](PossibleWorld& world, double* row, char*) {
          ConnectOnWorld(world, uf.get());
          for (std::size_t i = 0; i < pairs.size(); ++i) {
            row[i] = uf->Connected(pairs[i].s, pairs[i].t) ? 1.0 : 0.0;
          }
        };
      });
}

double EstimateConnectivity(const UncertainGraph& graph, int num_samples,
                            Rng* rng, const SampleEngine& engine) {
  UGS_CHECK(num_samples > 0);
  if (graph.num_vertices() <= 1) return 1.0;
  return engine.RunMean(
      graph, num_samples, rng, [&graph]() -> SampleEngine::WorldStat {
        auto uf = std::make_shared<UnionFind>(graph.num_vertices());
        return [uf](PossibleWorld& world) {
          ConnectOnWorld(world, uf.get());
          return uf->num_components() == 1 ? 1.0 : 0.0;
        };
      });
}

}  // namespace ugs
