#include "graph/graph_builder.h"

#include <string>

namespace ugs {

GraphBuilder::GraphBuilder(std::size_t num_vertices)
    : num_vertices_(num_vertices) {}

Status GraphBuilder::AddEdge(VertexId u, VertexId v, double p) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    return Status::InvalidArgument("edge endpoint out of range: (" +
                                   std::to_string(u) + ", " +
                                   std::to_string(v) + ")");
  }
  if (u == v) {
    return Status::InvalidArgument("self loop at vertex " +
                                   std::to_string(u));
  }
  // Negated-range form so NaN (all comparisons false) is rejected too.
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("edge probability must be in [0,1], got " +
                                   std::to_string(p));
  }
  if (!seen_.insert(EdgeKey(u, v)).second) {
    return Status::InvalidArgument("duplicate edge (" + std::to_string(u) +
                                   ", " + std::to_string(v) + ")");
  }
  edges_.push_back({u, v, p});
  return Status::OK();
}

UncertainGraph GraphBuilder::Build() && {
  return UncertainGraph::FromEdges(num_vertices_, std::move(edges_));
}

}  // namespace ugs
