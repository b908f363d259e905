#ifndef UGS_UTIL_INDEXED_HEAP_H_
#define UGS_UTIL_INDEXED_HEAP_H_

#include <cstdint>
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
class IndexedMaxHeap {
 public:
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

  /// Priority of the max entry.
  double TopPriority() const {
    UGS_CHECK(!empty());
    return entries_[0].priority;
  }

  /// Priority currently stored for key (must be present).
  double PriorityOf(std::uint32_t key) const {
    UGS_DCHECK(Contains(key));
    return entries_[pos_[key]].priority;
  }

  /// Removes and returns the key with maximum priority.
  std::uint32_t PopTop() {
    std::uint32_t top = Top();
    Remove(top);
    return top;
  }

  /// Removes key (must be present).
  void Remove(std::uint32_t key) {
    UGS_DCHECK(Contains(key));
    const std::size_t i = pos_[key];
    const Entry last = entries_.back();
    entries_.pop_back();
    pos_[key] = kAbsent;
    if (i == entries_.size()) return;
    // The last entry refills the hole at i, moving whichever way its
    // priority calls for.
    if (i > 0 && entries_[(i - 1) / 2].priority < last.priority) {
      SiftUp(i, last);
    } else {
      SiftDown(i, last);
    }
  }

  /// Drops all entries (key universe unchanged).
  void Clear() {
    for (const Entry& entry : entries_) pos_[entry.key] = kAbsent;
    entries_.clear();
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  struct Entry {
    double priority;
    std::uint32_t key;
  };

  void Place(std::size_t i, const Entry& entry) {
    entries_[i] = entry;
    pos_[entry.key] = i;
  }

  /// Settles `entry` into the hole at i, moving it toward the root: each
  /// lower-priority parent moves down one level into the hole. The
  /// comparisons and the final layout are those of swapping the entry up.
  void SiftUp(std::size_t i, const Entry& entry) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (entries_[parent].priority >= entry.priority) break;
      Place(i, entries_[parent]);
      i = parent;
    }
    Place(i, entry);
  }

  /// Settles `entry` into the hole at i, moving it toward the leaves past
  /// every higher-priority child (the right one when it is strictly
  /// higher than the left).
  void SiftDown(std::size_t i, const Entry& entry) {
    const std::size_t n = entries_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      const std::size_t best =
          left + static_cast<std::size_t>(
                     right < n &&
                     entries_[right].priority > entries_[left].priority);
      if (entry.priority >= entries_[best].priority) break;
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
