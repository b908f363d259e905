#ifndef UGS_QUERY_PAGERANK_H_
#define UGS_QUERY_PAGERANK_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/uncertain_graph.h"
#include "query/sample_engine.h"
#include "query/world_sampler.h"
#include "util/random.h"

namespace ugs {

/// McPageRank is the engine-taking kernel the registry dispatches to.

/// PageRank settings. Worlds are undirected, so each present edge conducts
/// rank both ways; dangling vertices (no present edge) spread uniformly.
struct PageRankOptions {
  double damping = 0.85;
  int max_iterations = 50;
  double tolerance = 1e-10;  ///< L1 change per iteration to stop early.
};

/// Per-task scratch of PageRankOnWorld, rebuilt for every world and
/// reused across worlds. The non-isolated vertices get slots in
/// descending degree, ties by id, four slots to a group; S is their
/// count rounded up to a multiple of 4. Each group's four incoming-rank
/// rows are interleaved in `terms` and padded to the group's longest
/// row. Two extra slots: S holds the isolated vertices' next rank (the
/// teleport base) and S + 1 is the padding term, whose `contrib` is +0.0.
struct PageRankScratch {
  std::vector<std::uint32_t> degree;   ///< Per vertex; build scratch.
  std::vector<std::uint32_t> first;    ///< Per degree; build scratch.
  std::vector<std::size_t> cursor;     ///< Per slot; build scratch.
  std::vector<std::uint32_t> slot;     ///< Per vertex; S if isolated.
  std::vector<double> degree_or_one;   ///< Per vertex; 1 if isolated.
  std::vector<VertexId> isolated;      ///< Degree-0 vertices, ascending.
  std::vector<std::size_t> group_end;  ///< End of each group in `terms`.
  /// Row k-th term of group g's lane at (group start) + 4k + lane: the
  /// neighbours' slots in ascending edge id, then S + 1 up to the end.
  std::vector<std::uint32_t> terms;
  std::vector<double> sums;     ///< Next rank per slot; S + 2 entries.
  std::vector<double> contrib;  ///< d * rank / degree per slot; S + 2.
};

/// PageRank vector (sums to 1) of one world, written to rank[0..|V|).
/// Needs damping in [0, 1] (PageRankQuery::Validate checks it), so every
/// term is >= +0. Each iteration sums every vertex's incoming rank in
/// four independent accumulators, one per row of a 4-row group; a row
/// lists its terms in ascending edge id, the order in which a push over
/// the present edges would add them, and the +0.0 padding after them
/// cannot change a sum >= +0. The L1 change and the dangling mass are
/// summed in ascending vertex id. So every value is fixed bit for bit
/// by the world (the determinism contract, docs/architecture.md).
void PageRankOnWorld(const PossibleWorld& world,
                     const PageRankOptions& options, double* rank,
                     PageRankScratch* scratch);

/// Monte-Carlo PageRank over `num_samples` sampled worlds; unit = vertex.
/// This is evaluation query (i) of Section 6.3. Worlds are dispatched
/// through `engine` (deterministic at any thread count).
McSamples McPageRank(const UncertainGraph& graph, int num_samples, Rng* rng,
                     const PageRankOptions& options,
                     const SampleEngine& engine);

}  // namespace ugs

#endif  // UGS_QUERY_PAGERANK_H_
