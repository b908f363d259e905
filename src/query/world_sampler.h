#ifndef UGS_QUERY_WORLD_SAMPLER_H_
#define UGS_QUERY_WORLD_SAMPLER_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "graph/uncertain_graph.h"
#include "util/random.h"

namespace ugs {

/// Bit-pattern equality of doubles: +0.0 and -0.0 differ, and a NaN
/// equals a NaN with the same bits. The comparison every "bit-identical"
/// determinism check means (`==` would call a NaN result different from
/// itself).
inline bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Samples one possible world: present[e] = 1 with probability p_e,
/// independently per edge (possible-world semantics, Section 1). O(|E|).
/// `present` is resized to |E|.
void SampleWorld(const UncertainGraph& graph, Rng* rng,
                 std::vector<char>* present);

/// Number of edges present in a sampled world.
std::size_t CountPresent(const std::vector<char>& present);

/// One deterministic world of an uncertain graph, in the compact form the
/// query kernels consume: the presence bitmap and the present edge ids in
/// ascending id order. Sampled worlds keep only a fraction of |E| (mean p
/// is ~0.1-0.2 on the paper's datasets), so kernels that walk the edge
/// list skip the absent edges instead of testing a flag per edge; kernels
/// that need rows build them in their own scratch (PageRank's slices,
/// clustering's oriented rows) or walk the graph's rows against the
/// bitmap (pair distances).
///
/// Lifecycle: either install a sorted edge list with Adopt() (the block
/// sampler), or write the bitmap through mutable_present() (the plain
/// sampler, or stratified pivot conditioning) and then call Rebuild()
/// before reading anything else. The bitmap is the only lazy member:
/// Adopt() leaves it stale, and it is rewritten from the edge list, once
/// per world, when present() or mutable_present() next asks for it. The
/// view keeps a reference to the graph and reuses its buffers across
/// rebuilds, so a per-task instance allocates only on its first world.
/// Not thread-safe (the bitmap is written inside a const accessor): each
/// engine task owns its own instance.
class PossibleWorld {
 public:
  /// The empty world (no edge present) of `graph`, which must outlive
  /// the view. Call Rebuild() once the bitmap is filled in.
  explicit PossibleWorld(const UncertainGraph& graph);

  const UncertainGraph& graph() const { return *graph_; }

  /// Presence flags, parallel to graph().edges(). The first call after
  /// Adopt() writes them from the adopted list.
  const std::vector<char>& present() const {
    if (bitmap_stale_) BuildBitmap();
    return present_;
  }
  std::vector<char>& mutable_present() {
    if (bitmap_stale_) BuildBitmap();
    return present_;
  }

  /// Re-derives the edge list from the bitmap. Call after every write
  /// through mutable_present().
  void Rebuild();

  /// Installs `edges` (ascending ids, each < |E|) as the present edges:
  /// copies the list and marks the bitmap stale (its next read rewrites
  /// the whole of it from the list, so no earlier write through
  /// mutable_present() survives). Replaces the bitmap scan of Rebuild()
  /// for samplers that produce sorted edge lists.
  void Adopt(std::span<const EdgeId> edges);

  /// Present edge ids, ascending.
  std::span<const EdgeId> edges() const {
    return {edges_.data(), num_present_};
  }

 private:
  void BuildBitmap() const;

  const UncertainGraph* graph_;
  // Written from edges_ on first use after Adopt().
  mutable std::vector<char> present_;
  mutable bool bitmap_stale_ = false;
  std::vector<EdgeId> edges_;  // First num_present_ entries valid.
  std::size_t num_present_ = 0;
};

/// A matrix of per-unit query results across Monte-Carlo samples, where a
/// "unit" is whatever the query is evaluated on (a vertex for PageRank and
/// clustering coefficient, a vertex pair for shortest-path distance and
/// reliability). values[s * num_units + u] is unit u's result in sample s.
///
/// `valid` (same layout) marks entries that participate in result
/// distributions; queries that condition on an event (shortest-path
/// distance conditions on the pair being connected, paper Section 6.3)
/// mark the complement invalid. Empty `valid` means everything counts.
struct McSamples {
  std::size_t num_units = 0;
  std::size_t num_samples = 0;
  std::vector<double> values;
  std::vector<char> valid;

  double At(std::size_t sample, std::size_t unit) const {
    return values[sample * num_units + unit];
  }
  bool IsValid(std::size_t sample, std::size_t unit) const {
    return valid.empty() || valid[sample * num_units + unit] != 0;
  }

  /// Mean of unit u's valid entries (0 if none are valid).
  double UnitMean(std::size_t unit) const;
  /// UnitMean of every unit: the point estimates.
  std::vector<double> UnitMeans() const;

  /// Pulls unit u's valid entries into a vector (for distribution
  /// comparisons).
  std::vector<double> UnitSamples(std::size_t unit) const;

  /// Bitwise equality of the full matrices -- the comparison behind the
  /// engine's identical-at-any-thread-count determinism checks.
  friend bool operator==(const McSamples& a, const McSamples& b) {
    return a.num_units == b.num_units && a.num_samples == b.num_samples &&
           SameBits(a.values, b.values) && a.valid == b.valid;
  }
};

}  // namespace ugs

#endif  // UGS_QUERY_WORLD_SAMPLER_H_
