#ifndef UGS_SPARSIFY_BACKBONE_H_
#define UGS_SPARSIFY_BACKBONE_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "util/random.h"
#include "util/status.h"

namespace ugs {

/// How the unweighted backbone graph G_b is initialized (paper Section 3.3).
enum class BackboneKind {
  /// Algorithm 1 (BGI): peel maximum spanning forests (probabilities as
  /// weights) to guarantee connectivity, then fill by Monte-Carlo edge
  /// sampling. This is the "-t" suffix of the experimental variants.
  kSpanning,
  /// Pure Monte-Carlo sampling of edges proportional to their probability
  /// until alpha |E| edges are selected (the "random backbone").
  kRandom,
};

struct BackboneOptions {
  BackboneKind kind = BackboneKind::kSpanning;
  /// Cap on the fraction of backbone edges contributed by spanning
  /// forests; the paper uses alpha' = min(0.5 alpha |E|, first six maximum
  /// spanning forests).
  double spanning_fraction = 0.5;
  int max_spanning_forests = 6;
};

/// Computes round(alpha * |E|), the paper's |E'| = alpha |E| target.
std::size_t TargetEdgeCount(const UncertainGraph& graph, double alpha);

/// Builds a backbone of exactly TargetEdgeCount(graph, alpha) edge ids.
///
/// For BackboneKind::kSpanning the result is connected whenever the input
/// graph is connected and alpha |E| >= |V| - 1 (paper footnote 7); the
/// call fails with InvalidArgument otherwise. Edge ids index
/// graph.edges().
[[nodiscard]] Result<std::vector<EdgeId>> BuildBackbone(
    const UncertainGraph& graph, double alpha, const BackboneOptions& options,
    Rng* rng);

/// One maximum spanning forest of the subgraph `available` (edge ids),
/// using probabilities as weights (Kruskal; of equal probabilities, the
/// edge earlier in `available` is tried first). Returns forest edge ids,
/// sorted.
std::vector<EdgeId> MaximumSpanningForest(const UncertainGraph& graph,
                                          const std::vector<EdgeId>& available);

}  // namespace ugs

#endif  // UGS_SPARSIFY_BACKBONE_H_
