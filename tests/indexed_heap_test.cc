#include "util/indexed_heap.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ugs {
namespace {

TEST(IndexedHeapTest, EmptyInitially) {
  IndexedMaxHeap heap(10);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  EXPECT_FALSE(heap.Contains(3));
}

TEST(IndexedHeapTest, PushAndTop) {
  IndexedMaxHeap heap(10);
  heap.Push(3, 1.5);
  heap.Push(7, 2.5);
  heap.Push(1, 0.5);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.Top(), 7u);
  EXPECT_DOUBLE_EQ(heap.TopPriority(), 2.5);
}

TEST(IndexedHeapTest, PopTopDescendingOrder) {
  IndexedMaxHeap heap(8);
  double priorities[] = {3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0};
  for (std::uint32_t i = 0; i < 8; ++i) heap.Push(i, priorities[i]);
  double last = 1e18;
  while (!heap.empty()) {
    double p = heap.TopPriority();
    heap.PopTop();
    EXPECT_LE(p, last);
    last = p;
  }
}

TEST(IndexedHeapTest, UpdateRaisesPriority) {
  IndexedMaxHeap heap(5);
  heap.Push(0, 1.0);
  heap.Push(1, 2.0);
  heap.Update(0, 3.0);
  EXPECT_EQ(heap.Top(), 0u);
  EXPECT_DOUBLE_EQ(heap.PriorityOf(0), 3.0);
}

TEST(IndexedHeapTest, UpdateLowersPriority) {
  IndexedMaxHeap heap(5);
  heap.Push(0, 5.0);
  heap.Push(1, 2.0);
  heap.Update(0, 1.0);
  EXPECT_EQ(heap.Top(), 1u);
}

TEST(IndexedHeapTest, UpdateInsertsIfAbsent) {
  IndexedMaxHeap heap(5);
  heap.Update(2, 4.0);
  EXPECT_TRUE(heap.Contains(2));
  EXPECT_EQ(heap.Top(), 2u);
}

TEST(IndexedHeapTest, RemoveMiddleKey) {
  IndexedMaxHeap heap(5);
  for (std::uint32_t i = 0; i < 5; ++i) heap.Push(i, i * 1.0);
  heap.Remove(2);
  EXPECT_FALSE(heap.Contains(2));
  EXPECT_EQ(heap.size(), 4u);
  EXPECT_EQ(heap.Top(), 4u);
}

TEST(IndexedHeapTest, ClearResets) {
  IndexedMaxHeap heap(5);
  heap.Push(0, 1.0);
  heap.Push(1, 2.0);
  heap.Clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_FALSE(heap.Contains(0));
  heap.Push(0, 3.0);  // Reusable after Clear.
  EXPECT_EQ(heap.Top(), 0u);
}

TEST(IndexedHeapTest, TiedPrioritiesAllSurface) {
  IndexedMaxHeap heap(4);
  for (std::uint32_t i = 0; i < 4; ++i) heap.Push(i, 1.0);
  std::vector<std::uint32_t> popped;
  while (!heap.empty()) popped.push_back(heap.PopTop());
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(popped, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(IndexedHeapTest, RandomizedAgainstMapModel) {
  // Differential test against a sorted-map reference model, exercising the
  // exact operation mix EMD uses (Update-heavy with occasional Remove).
  const std::uint32_t universe = 50;
  IndexedMaxHeap heap(universe);
  std::map<std::uint32_t, double> model;
  Rng rng(2024);
  for (int op = 0; op < 5000; ++op) {
    int action = static_cast<int>(rng.NextIndex(10));
    auto key = static_cast<std::uint32_t>(rng.NextIndex(universe));
    if (action < 6) {  // Update (insert or change).
      double priority = rng.Uniform(-10.0, 10.0);
      heap.Update(key, priority);
      model[key] = priority;
    } else if (action < 8) {  // Remove if present.
      if (model.count(key)) {
        heap.Remove(key);
        model.erase(key);
      }
    } else if (!model.empty()) {  // Check top priority matches model max.
      double top = heap.TopPriority();
      double best = -1e18;
      for (const auto& [k, v] : model) best = std::max(best, v);
      ASSERT_DOUBLE_EQ(top, best) << "op " << op;
    }
    ASSERT_EQ(heap.size(), model.size());
  }
}

TEST(IndexedHeapTest, PriorityOfReflectsUpdates) {
  IndexedMaxHeap heap(3);
  heap.Push(1, 7.0);
  EXPECT_DOUBLE_EQ(heap.PriorityOf(1), 7.0);
  heap.Update(1, -2.0);
  EXPECT_DOUBLE_EQ(heap.PriorityOf(1), -2.0);
}

/// The heap as first written: parallel key and priority arrays, sifting
/// by swapping an entry with its parent or child one level at a time.
class SwapHeap {
 public:
  explicit SwapHeap(std::size_t n) : pos_(n, kAbsent) {}

  bool Contains(std::uint32_t key) const { return pos_[key] != kAbsent; }
  std::size_t size() const { return keys_.size(); }
  std::uint32_t Top() const { return keys_[0]; }

  void Push(std::uint32_t key, double priority) {
    pos_[key] = keys_.size();
    keys_.push_back(key);
    priorities_.push_back(priority);
    SiftUp(keys_.size() - 1);
  }

  void Update(std::uint32_t key, double priority) {
    if (!Contains(key)) {
      Push(key, priority);
      return;
    }
    const std::size_t i = pos_[key];
    const double old = priorities_[i];
    priorities_[i] = priority;
    if (priority > old) {
      SiftUp(i);
    } else if (priority < old) {
      SiftDown(i);
    }
  }

  void Remove(std::uint32_t key) {
    const std::size_t i = pos_[key];
    const std::size_t last = keys_.size() - 1;
    if (i != last) {
      keys_[i] = keys_[last];
      priorities_[i] = priorities_[last];
      pos_[keys_[i]] = i;
    }
    pos_[key] = kAbsent;
    keys_.pop_back();
    priorities_.pop_back();
    if (i != last) {
      SiftUp(i);
      SiftDown(i);
    }
  }

  void Clear() {
    for (std::uint32_t k : keys_) pos_[k] = kAbsent;
    keys_.clear();
    priorities_.clear();
  }

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);

  void Swap(std::size_t a, std::size_t b) {
    std::swap(keys_[a], keys_[b]);
    std::swap(priorities_[a], priorities_[b]);
    pos_[keys_[a]] = a;
    pos_[keys_[b]] = b;
  }

  void SiftUp(std::size_t i) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (priorities_[parent] >= priorities_[i]) break;
      Swap(parent, i);
      i = parent;
    }
  }

  void SiftDown(std::size_t i) {
    const std::size_t n = keys_.size();
    for (;;) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      std::size_t best = left;
      const std::size_t right = left + 1;
      if (right < n && priorities_[right] > priorities_[left]) best = right;
      if (priorities_[i] >= priorities_[best]) break;
      Swap(i, best);
      i = best;
    }
  }

  std::vector<std::size_t> pos_;
  std::vector<std::uint32_t> keys_;
  std::vector<double> priorities_;
};

TEST(IndexedHeapTest, TieHeavyOpsKeepTheSwapHeapsTopOrder) {
  // Priorities from a 4-value set make ties the rule, so any change in
  // which comparisons sifting makes, or in how ties settle, shows in
  // Top() -- the vertex EMD's E-phase repairs.
  const std::uint32_t universe = 64;
  IndexedMaxHeap heap(universe);
  SwapHeap reference(universe);
  Rng rng(77);
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.NextIndex(universe));
    const double priority = static_cast<double>(rng.NextIndex(4));
    const std::uint64_t action = rng.NextIndex(20);
    if (action < 13) {
      heap.Update(key, priority);
      reference.Update(key, priority);
    } else if (action < 17) {
      if (reference.Contains(key)) {
        heap.Remove(key);
        reference.Remove(key);
      }
    } else if (action < 19) {
      if (reference.size() > 0) {
        const std::uint32_t top = reference.Top();
        EXPECT_EQ(heap.PopTop(), top) << "op " << op;
        reference.Remove(top);
      }
    } else if (rng.NextIndex(50) == 0) {
      heap.Clear();
      reference.Clear();
    }
    ASSERT_EQ(heap.size(), reference.size()) << "op " << op;
    if (reference.size() > 0) {
      ASSERT_EQ(heap.Top(), reference.Top()) << "op " << op;
    }
  }
}

}  // namespace
}  // namespace ugs
