#ifndef UGS_UTIL_INDEXED_HEAP_H_
#define UGS_UTIL_INDEXED_HEAP_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "util/check.h"

namespace ugs {

/// Binary max-heap over a fixed key universe [0, n) with O(log n) priority
/// updates addressed by key.
///
/// This is the vertex heap H_v of Algorithm 3 (EMD): vertices are keyed by
/// id and prioritized by |discrepancy|; every edge swap updates the two
/// endpoint priorities in place. Compared to a lazy std::priority_queue this
/// keeps the E-phase heap overhead at O(alpha |E| log |V|) as analyzed in
/// Section 4.3 of the paper.
///
/// Tie rule: entries are ordered by priority, highest first, and equal
/// priorities by key, lowest first (Precedes). No two entries share a key,
/// so this is a strict total order: Top() and TopExcept() are functions
/// of the stored (key, priority) pairs alone, whatever sequence of
/// operations produced them. NaN priorities are not supported.
class IndexedMaxHeap {
 public:
  struct Entry {
    double priority;
    std::uint32_t key;
  };

  /// The heap order: true iff `a` comes before `b`.
  static bool Precedes(const Entry& a, const Entry& b) {
    return a.priority > b.priority ||
           (a.priority == b.priority && a.key < b.key);
  }

  /// Creates an empty heap over keys [0, n).
  explicit IndexedMaxHeap(std::size_t n) : pos_(n, kAbsent) {}

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// True iff key currently has an entry.
  bool Contains(std::uint32_t key) const {
    UGS_DCHECK(key < pos_.size());
    return pos_[key] != kAbsent;
  }

  /// Inserts key with the given priority. Key must not be present.
  void Push(std::uint32_t key, double priority) {
    UGS_DCHECK(!Contains(key));
    entries_.emplace_back();
    SiftUp(entries_.size() - 1, {priority, key});
  }

  /// Inserts or updates a key's priority.
  void Update(std::uint32_t key, double priority) {
    if (!Contains(key)) {
      Push(key, priority);
      return;
    }
    const std::size_t i = pos_[key];
    const double old = entries_[i].priority;
    if (priority > old) {
      SiftUp(i, {priority, key});
    } else if (priority < old) {
      SiftDown(i, {priority, key});
    }
  }

  /// Returns the key with maximum priority without removing it.
  std::uint32_t Top() const {
    UGS_CHECK(!empty());
    return entries_[0].key;
  }

  /// The first entry in heap order whose key is neither `a` nor `b`, or
  /// nullopt when there is none. Every ancestor of an entry precedes it,
  /// so the answer sits in the top three levels: deeper, it would have
  /// three ancestors, at most two of them excluded. O(1).
  std::optional<Entry> TopExcept(std::uint32_t a, std::uint32_t b) const {
    const std::size_t n = std::min<std::size_t>(entries_.size(), 7);
    const Entry* best = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
      const Entry& entry = entries_[i];
      if (entry.key == a || entry.key == b) continue;
      // The root, when not excluded, precedes every other entry.
      if (i == 0) return entry;
      if (best == nullptr || Precedes(entry, *best)) best = &entry;
    }
    if (best == nullptr) return std::nullopt;
    return *best;
  }

  /// Drops all entries (key universe unchanged).
  void Clear() {
    for (const Entry& entry : entries_) pos_[entry.key] = kAbsent;
    entries_.clear();
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  void Place(std::size_t i, const Entry& entry) {
    entries_[i] = entry;
    pos_[entry.key] = i;
  }

  /// Settles `entry` into the hole at i, moving it toward the root: each
  /// parent it precedes moves down one level into the hole.
  void SiftUp(std::size_t i, const Entry& entry) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!Precedes(entry, entries_[parent])) break;
      Place(i, entries_[parent]);
      i = parent;
    }
    Place(i, entry);
  }

  /// Settles `entry` into the hole at i, moving it toward the leaves past
  /// every child that precedes it, the first of the two children in heap
  /// order each time.
  void SiftDown(std::size_t i, const Entry& entry) {
    const std::size_t n = entries_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      const std::size_t best =
          left + static_cast<std::size_t>(
                     right < n && Precedes(entries_[right], entries_[left]));
      if (!Precedes(entries_[best], entry)) break;
      Place(i, entries_[best]);
      i = best;
    }
    Place(i, entry);
  }

  std::vector<std::size_t> pos_;  // key -> index in entries_, or kAbsent.
  std::vector<Entry> entries_;    // heap order.
};

}  // namespace ugs

#endif  // UGS_UTIL_INDEXED_HEAP_H_
