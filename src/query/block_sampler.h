#ifndef UGS_QUERY_BLOCK_SAMPLER_H_
#define UGS_QUERY_BLOCK_SAMPLER_H_

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "graph/uncertain_graph.h"
#include "util/random.h"

namespace ugs {

/// Lane-parallel possible-world sampler: one pass over the edges, in
/// ascending id, decides a block of kLanes independent worlds at once.
///
/// Each edge with 0 < p < 1 gets the 64-bit threshold P = floor(p 2^64).
/// Every lane stands for a uniform 64-bit U, revealed MSB first from
/// fresh random words (one word = four 16-lane bit planes, i.e. four bit
/// positions of all 16 lanes); the lane's edge is present iff U < P,
/// decided at the first bit where U and P differ. That is Bernoulli(p)
/// to within 2^-64 (the plain SampleWorld compares a 53-bit double). The
/// first two words (eight bit positions) are consumed branch-free; only
/// the ~6% of edges with a lane still undecided after them draw more.
/// Edges with p <= 0 or p >= 1 draw no bits at all.
///
/// Each present lane's edge is appended to that lane's list, so every
/// world comes out as an ascending edge list, ready for
/// PossibleWorld::Adopt -- no bitmap scan, no compaction.
///
/// All kLanes lanes are always decided, and the words drawn depend only
/// on the random bits, so a block is a pure function of its Rng: lane l
/// of a block never depends on how many of the block's worlds a caller
/// uses. SampleEngine (use_skip_sampler) maps sample s to lane s % kLanes
/// of block s / kLanes, drawn from SampleEngine::SampleRng(base, s /
/// kLanes).
///
/// The lane lists are reused across blocks, so an instance allocates
/// only until its lists reach the largest world it has drawn: storage is
/// proportional to the present edges, not kLanes x |E|. Not thread-safe;
/// each engine task owns one.
class BlockWorldSampler {
 public:
  /// Worlds decided per pass over the edges.
  static constexpr std::size_t kLanes = 16;

  /// Samples the kLanes worlds of one block of `graph` from `rng`,
  /// replacing the previous block's.
  void SampleBlock(const UncertainGraph& graph, Rng* rng);

  /// Present edge ids of lane `lane`'s world, ascending.
  std::span<const EdgeId> Lane(std::size_t lane) const {
    return {lanes_[lane].data(), sizes_[lane]};
  }

 private:
  /// Edges decided together before their lanes are appended; fixes the
  /// order in which random words are drawn.
  static constexpr std::size_t kChunk = 64;

  std::array<std::vector<EdgeId>, kLanes> lanes_;  // Grown, never shrunk.
  std::array<std::size_t, kLanes> sizes_{};        // Valid prefix of each.
};

}  // namespace ugs

#endif  // UGS_QUERY_BLOCK_SAMPLER_H_
