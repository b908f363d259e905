#include "query/block_sampler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

namespace ugs {
namespace {

constexpr std::uint32_t kAllLanes = (1u << BlockWorldSampler::kLanes) - 1;

/// Plane j (bits 16j .. 16j + 15) all ones iff bit 3 - j of the index
/// is set: a threshold nibble spread over the four bit planes of a word.
constexpr std::array<std::uint64_t, 16> kNibblePlanes = [] {
  std::array<std::uint64_t, 16> planes{};
  for (int nibble = 0; nibble < 16; ++nibble) {
    for (int j = 0; j < 4; ++j) {
      if ((nibble >> (3 - j)) & 1) planes[nibble] |= 0xFFFFULL << (16 * j);
    }
  }
  return planes;
}();

/// Compares the four bit planes of `word`, plane j holding every lane's
/// bit at position first + j (MSB = position 0), with the same positions
/// of `threshold`. An undecided lane is decided at the first of these
/// positions where its bit differs from the threshold's: present when
/// the threshold's bit is 1 (the lane's U is the smaller), absent
/// otherwise. The four planes are folded at once, most significant
/// first: (lt, eq) of planes j and j + 1 combine to lt_j | eq_j & lt_j+1.
inline void ComparePlanes(std::uint64_t word, std::uint64_t threshold,
                          int first, std::uint32_t* undecided,
                          std::uint32_t* present) {
  const std::uint64_t planes = kNibblePlanes[(threshold >> (60 - first)) & 0xF];
  std::uint64_t lt = planes & ~word;
  std::uint64_t eq = ~(planes ^ word);
  lt |= eq & (lt >> 16);
  eq &= eq >> 16;
  lt |= eq & (lt >> 32);
  eq &= eq >> 32;
  *present |= *undecided & static_cast<std::uint32_t>(lt);
  *undecided &= static_cast<std::uint32_t>(eq);
}

/// P = floor(p 2^64) for 0 < p < 1: p * 2^64 is exact, the conversion
/// floors it.
inline std::uint64_t Threshold(double p) {
  return static_cast<std::uint64_t>(p * 0x1.0p64);
}

/// Bit l of byte k of `bytes` moved to bit k of the result, for the
/// eight bytes k: a column of an 8 x 8 bit matrix. The multiplier sends
/// byte k's bit 0 to bit 56 + k; no two partial products collide.
inline std::uint64_t Column(std::uint64_t bytes, int l) {
  return (((bytes >> l) & 0x0101010101010101ULL) * 0x0102040810204080ULL) >>
         56;
}

}  // namespace

void BlockWorldSampler::SampleBlock(const UncertainGraph& graph,
                                    Rng* block_rng) {
  // A local copy keeps the generator's state in registers: the byte
  // stores below could otherwise alias it.
  Rng local_rng = *block_rng;
  Rng* rng = &local_rng;
  sizes_.fill(0);
  const std::span<const UncertainEdge> edges = graph.edges();
  // The edges go in chunks of kChunk: first each edge's 16-lane presence
  // mask (low and high byte apart), with the undecided edges set aside;
  // then the set-aside edges are finished; then the masks are transposed
  // into one kChunk-bit word per lane, whose set bits are appended to
  // that lane's list. The chunk size fixes the order in which random
  // words are drawn, so it is part of the stream.
  std::uint8_t low[kChunk] = {};
  std::uint8_t high[kChunk] = {};
  std::uint8_t pending[kChunk] = {};
  std::uint32_t pending_undecided[kChunk] = {};
  for (std::size_t base = 0; base < edges.size(); base += kChunk) {
    const std::size_t count = std::min(kChunk, edges.size() - base);
    std::size_t num_pending = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const double p = edges[base + i].p;
      std::uint32_t present = 0;
      std::uint32_t undecided = 0;
      if (p >= 1.0) {
        present = kAllLanes;
      } else if (p > 0.0) {
        const std::uint64_t threshold = Threshold(p);
        undecided = kAllLanes;
        ComparePlanes(rng->Next64(), threshold, 0, &undecided, &present);
        ComparePlanes(rng->Next64(), threshold, 4, &undecided, &present);
      }
      low[i] = static_cast<std::uint8_t>(present);
      high[i] = static_cast<std::uint8_t>(present >> 8);
      // Branch-free: every edge is written, only undecided ones advance.
      pending[num_pending] = static_cast<std::uint8_t>(i);
      pending_undecided[num_pending] = undecided;
      num_pending += undecided != 0;
    }
    // The ~6% of edges with a lane still tied with P after eight bits.
    for (std::size_t k = 0; k < num_pending; ++k) {
      const std::size_t i = pending[k];
      const std::uint64_t threshold = Threshold(edges[base + i].p);
      std::uint32_t undecided = pending_undecided[k];
      std::uint32_t present = low[i] | (std::uint32_t{high[i]} << 8);
      // Lanes that match P on all 64 bits have U == P: absent.
      for (int first = 8; undecided != 0 && first < 64; first += 4) {
        ComparePlanes(rng->Next64(), threshold, first, &undecided, &present);
      }
      low[i] = static_cast<std::uint8_t>(present);
      high[i] = static_cast<std::uint8_t>(present >> 8);
    }
    // Unused tail bytes of the last chunk stay absent.
    std::memset(low + count, 0, kChunk - count);
    std::memset(high + count, 0, kChunk - count);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint8_t* bytes = l < 8 ? low : high;
      const int bit = static_cast<int>(l % 8);
      std::uint64_t word = 0;
      for (std::size_t g = 0; g < kChunk / 8; ++g) {
        std::uint64_t packed = 0;
        std::memcpy(&packed, bytes + 8 * g, sizeof(packed));
        if constexpr (std::endian::native == std::endian::big) {
          packed = __builtin_bswap64(packed);
        }
        word |= Column(packed, bit) << (8 * g);
      }
      std::vector<EdgeId>& lane = lanes_[l];
      std::size_t size = sizes_[l];
      if (lane.size() < size + kChunk) {
        lane.resize(std::max(2 * lane.size(), size + kChunk));
      }
      EdgeId* out = lane.data() + size;
      while (word != 0) {
        *out++ = static_cast<EdgeId>(base) +
                 static_cast<EdgeId>(std::countr_zero(word));
        word &= word - 1;
      }
      sizes_[l] = static_cast<std::size_t>(out - lane.data());
    }
  }
  *block_rng = local_rng;
}

}  // namespace ugs
