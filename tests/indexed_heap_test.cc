#include "util/indexed_heap.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
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
  EXPECT_DOUBLE_EQ(heap.TopExcept(10, 10)->priority, 2.5);
}

TEST(IndexedHeapTest, UpdateRaisesPriority) {
  IndexedMaxHeap heap(5);
  heap.Push(0, 1.0);
  heap.Push(1, 2.0);
  heap.Update(0, 3.0);
  EXPECT_EQ(heap.Top(), 0u);
  EXPECT_DOUBLE_EQ(heap.TopExcept(5, 5)->priority, 3.0);
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

TEST(IndexedHeapTest, RandomizedAgainstMapModel) {
  // Differential test against a map reference model, under the operation
  // EMD's E-phase issues: Update, raising or lowering a stored priority.
  const std::uint32_t universe = 50;
  IndexedMaxHeap heap(universe);
  std::map<std::uint32_t, double> model;
  Rng rng(2024);
  for (int op = 0; op < 5000; ++op) {
    int action = static_cast<int>(rng.NextIndex(10));
    auto key = static_cast<std::uint32_t>(rng.NextIndex(universe));
    if (action < 8) {  // Update (insert or change).
      double priority = rng.Uniform(-10.0, 10.0);
      heap.Update(key, priority);
      model[key] = priority;
    } else if (!model.empty()) {  // Check top priority matches model max.
      double top = heap.TopExcept(universe, universe)->priority;
      double best = -1e18;
      for (const auto& [k, v] : model) best = std::max(best, v);
      ASSERT_DOUBLE_EQ(top, best) << "op " << op;
    }
    ASSERT_EQ(heap.size(), model.size());
  }
}

/// The first of `model`'s keys in heap order by brute force -- highest
/// priority, lowest key among equals -- skipping `a` and `b`.
std::optional<std::uint32_t> BruteTop(
    const std::map<std::uint32_t, double>& model, std::uint32_t a,
    std::uint32_t b) {
  std::optional<std::uint32_t> best;
  double best_priority = 0.0;
  for (const auto& [key, priority] : model) {  // Ascending keys.
    if (key == a || key == b) continue;
    if (!best.has_value() || priority > best_priority) {
      best = key;
      best_priority = priority;
    }
  }
  return best;
}

/// Checks heap.TopExcept(a, b) against BruteTop, key and priority.
void ExpectTopExceptMatches(const IndexedMaxHeap& heap,
                            const std::map<std::uint32_t, double>& model,
                            std::uint32_t a, std::uint32_t b,
                            const std::string& label) {
  const std::optional<IndexedMaxHeap::Entry> got = heap.TopExcept(a, b);
  const std::optional<std::uint32_t> want = BruteTop(model, a, b);
  ASSERT_EQ(got.has_value(), want.has_value()) << label;
  if (!want.has_value()) return;
  EXPECT_EQ(got->key, *want) << label;
  EXPECT_EQ(got->priority, model.at(*want)) << label;
}

TEST(IndexedHeapTest, TieHeavyOpsKeepTopTheBruteForceArgmax) {
  // Priorities from a 4-value set make ties the rule, so Top() pins the
  // tie rule after every operation, whatever sequence built the heap.
  // Each step also asks TopExcept to skip two keys drawn from the first
  // three in heap order, an absent or random key, or the same key twice.
  const std::uint32_t universe = 64;
  IndexedMaxHeap heap(universe);
  std::map<std::uint32_t, double> model;
  Rng rng(77);
  for (int op = 0; op < 20000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.NextIndex(universe));
    const double priority = static_cast<double>(rng.NextIndex(4));
    const std::uint64_t action = rng.NextIndex(20);
    if (action < 19) {
      heap.Update(key, priority);
      model[key] = priority;
    } else if (rng.NextIndex(50) == 0) {
      heap.Clear();
      model.clear();
    }
    ASSERT_EQ(heap.size(), model.size()) << "op " << op;
    if (model.empty()) continue;
    ASSERT_EQ(heap.Top(), *BruteTop(model, universe, universe)) << "op " << op;
    ASSERT_EQ(heap.TopExcept(universe, universe)->priority,
              model.at(heap.Top()))
        << "op " << op;

    // The first three keys in heap order (fewer on a smaller heap).
    std::vector<std::uint32_t> firsts;
    const std::uint32_t first = *BruteTop(model, universe, universe);
    firsts.push_back(first);
    if (const auto second = BruteTop(model, first, universe)) {
      firsts.push_back(*second);
      if (const auto third = BruteTop(model, first, *second)) {
        firsts.push_back(*third);
      }
    }
    const auto pick = [&]() -> std::uint32_t {
      const std::uint64_t r = rng.NextIndex(firsts.size() + 2);
      if (r < firsts.size()) return firsts[r];
      return r == firsts.size()
                 ? universe  // A key no entry has.
                 : static_cast<std::uint32_t>(rng.NextIndex(universe));
    };
    const std::uint32_t a = pick();
    const std::uint32_t b = rng.NextIndex(8) == 0 ? a : pick();
    ExpectTopExceptMatches(heap, model, a, b, "op " + std::to_string(op));
  }
}

TEST(IndexedHeapTest, TopExceptOnSmallHeapsMatchesBruteForce) {
  // Every heap of 1-3 keys out of 4, each key at priority 0 or 1 (so with
  // and without ties), pushed in every order, against every exclusion pair
  // over the 4 keys and one absent key: 0, 1 or 2 excluded keys present.
  const std::uint32_t universe = 5;
  for (std::uint32_t mask = 1; mask < 16; ++mask) {
    std::vector<std::uint32_t> keys;
    for (std::uint32_t k = 0; k < 4; ++k) {
      if ((mask >> k) & 1) keys.push_back(k);
    }
    if (keys.size() > 3) continue;
    for (std::uint32_t bits = 0; bits < 16; ++bits) {
      do {
        IndexedMaxHeap heap(universe);
        std::map<std::uint32_t, double> model;
        for (std::size_t i = 0; i < keys.size(); ++i) {
          const double priority = static_cast<double>((bits >> keys[i]) & 1);
          heap.Push(keys[i], priority);
          model[keys[i]] = priority;
        }
        for (std::uint32_t a = 0; a < universe; ++a) {
          for (std::uint32_t b = 0; b < universe; ++b) {
            ExpectTopExceptMatches(
                heap, model, a, b,
                "mask " + std::to_string(mask) + " bits " +
                    std::to_string(bits) + " skip " + std::to_string(a) +
                    "," + std::to_string(b));
          }
        }
      } while (std::next_permutation(keys.begin(), keys.end()));
    }
  }
}

}  // namespace
}  // namespace ugs
