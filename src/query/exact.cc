#include "query/exact.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "query/reliability.h"
#include "query/shortest_path.h"
#include "query/world_sampler.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace ugs {
namespace {

/// Loads the world whose edge e is present iff bit e of `mask` is set
/// into `world` (view rebuilt) and returns its probability under the
/// per-edge probabilities `p`.
double LoadWorld(std::uint64_t mask, const std::vector<double>& p,
                 PossibleWorld* world) {
  std::vector<char>& present = world->mutable_present();
  double probability = 1.0;
  for (std::size_t e = 0; e < present.size(); ++e) {
    bool on = (mask >> e) & 1ULL;
    present[e] = on ? 1 : 0;
    probability *= on ? p[e] : (1.0 - p[e]);
  }
  world->Rebuild();
  return probability;
}

std::vector<double> EdgeProbabilities(const UncertainGraph& graph) {
  const std::size_t m = graph.num_edges();
  UGS_CHECK_LE(m, kMaxExactEdges);
  std::vector<double> p(m);
  for (std::size_t e = 0; e < m; ++e) {
    p[e] = graph.edge(static_cast<EdgeId>(e)).p;
  }
  return p;
}

/// A per-chunk reduction visitor: adds a world's contribution into
/// acc[0..num_accumulators).
using ChunkVisitor = std::function<void(const PossibleWorld&, double, double*)>;

/// Worlds per enumeration chunk. Fixed (never derived from the thread
/// count) so the per-chunk partial sums -- and therefore the final
/// ordered reduction -- are bit-identical at any pool size. Graphs with
/// <= 12 edges run as a single chunk, summed in plain mask order.
constexpr std::uint64_t kWorldChunk = 1ULL << 12;

/// Enumerates all 2^m worlds in fixed chunks on `pool`. The factory
/// builds one visitor (plus scratch) per chunk; chunk partials are summed
/// in chunk order into out[0..num_accumulators), so the result is
/// bit-identical on any pool.
void ParallelWorldReduce(const UncertainGraph& graph, int num_accumulators,
                         const std::function<ChunkVisitor()>& factory,
                         double* out, ThreadPool& pool) {
  const std::vector<double> probabilities = EdgeProbabilities(graph);
  const std::uint64_t worlds = 1ULL << probabilities.size();
  const std::uint64_t chunk = std::min(worlds, kWorldChunk);
  const std::size_t num_chunks =
      static_cast<std::size_t>((worlds + chunk - 1) / chunk);
  const std::size_t k = static_cast<std::size_t>(num_accumulators);
  std::vector<double> partial(num_chunks * k, 0.0);

  pool.ParallelFor(num_chunks, [&](std::size_t c) {
    ChunkVisitor visit = factory();
    PossibleWorld world(graph);
    double* acc = partial.data() + c * k;
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * chunk;
    const std::uint64_t end = std::min(begin + chunk, worlds);
    for (std::uint64_t mask = begin; mask < end; ++mask) {
      const double probability = LoadWorld(mask, probabilities, &world);
      if (probability > 0.0) visit(world, probability, acc);
    }
  });

  for (std::size_t a = 0; a < k; ++a) {
    double sum = 0.0;
    for (std::size_t c = 0; c < num_chunks; ++c) sum += partial[c * k + a];
    out[a] = sum;
  }
}

}  // namespace

double ExactConnectivityProbability(const UncertainGraph& graph,
                                    ThreadPool& pool) {
  const std::size_t n = graph.num_vertices();
  if (n <= 1) return 1.0;
  double total = 0.0;
  ParallelWorldReduce(
      graph, 1,
      [n]() -> ChunkVisitor {
        auto uf = std::make_shared<UnionFind>(n);
        return [uf](const PossibleWorld& world, double prob, double* acc) {
          ConnectOnWorld(world, uf.get());
          if (uf->num_components() == 1) acc[0] += prob;
        };
      },
      &total, pool);
  return total;
}

double ExactReliability(const UncertainGraph& graph, VertexId s, VertexId t,
                        ThreadPool& pool) {
  UGS_CHECK(s < graph.num_vertices() && t < graph.num_vertices());
  double total = 0.0;
  ParallelWorldReduce(
      graph, 1,
      [&graph, s, t]() -> ChunkVisitor {
        auto uf = std::make_shared<UnionFind>(graph.num_vertices());
        return [uf, s, t](const PossibleWorld& world, double prob,
                          double* acc) {
          ConnectOnWorld(world, uf.get());
          if (uf->Connected(s, t)) acc[0] += prob;
        };
      },
      &total, pool);
  return total;
}

double ExactExpectedDistance(const UncertainGraph& graph, VertexId s,
                             VertexId t, double* connectivity_probability,
                             ThreadPool& pool) {
  UGS_CHECK(s < graph.num_vertices() && t < graph.num_vertices());
  // acc[0] = Pr[s ~ t], acc[1] = sum prob * dist over connected worlds.
  double acc[2] = {0.0, 0.0};
  ParallelWorldReduce(
      graph, 2,
      [s, t]() -> ChunkVisitor {
        auto scratch = std::make_shared<PairSearchScratch>();
        return [scratch, s, t](const PossibleWorld& world, double prob,
                               double* a) {
          const int d = ShortestDistanceOnWorld(world, s, t, scratch.get());
          if (d != kUnreachable) {
            a[0] += prob;
            a[1] += prob * static_cast<double>(d);
          }
        };
      },
      acc, pool);
  if (connectivity_probability != nullptr) {
    *connectivity_probability = acc[0];
  }
  return acc[0] > 0.0 ? acc[1] / acc[0] : 0.0;
}

}  // namespace ugs
