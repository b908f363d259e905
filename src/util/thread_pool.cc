#include "util/thread_pool.h"

#include <algorithm>

namespace ugs {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = HardwareThreads();
  num_threads_ = num_threads;
  workers_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mutex_);
    stop_ = true;
  }
  work_cv_.SignalAll();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::HardwareThreads() {
  unsigned int n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ThreadPool::UnlistLocked(Group* group) {
  if (!group->listed) return;
  group->listed = false;
  active_groups_.erase(
      std::find(active_groups_.begin(), active_groups_.end(), group));
  num_active_groups_.store(active_groups_.size(),
                           std::memory_order_relaxed);
}

void ThreadPool::RunGroupTasks(Group* group, bool yield_to_other_groups) {
  for (;;) {
    const std::size_t i = group->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= group->total) return;
    (*group->job)(i);
    group->done.fetch_add(1, std::memory_order_acq_rel);
    // With several groups in flight a worker re-picks after each index so
    // overlapping loops interleave; the claim is one atomic either way.
    if (yield_to_other_groups &&
        num_active_groups_.load(std::memory_order_relaxed) > 1) {
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  MutexLock lock(&mutex_);
  for (;;) {
    while (!stop_ && active_groups_.empty()) work_cv_.Wait(&mutex_);
    if (stop_) return;
    // Round-robin across the active groups; exhausted groups (counter
    // past total, stragglers still running) are dropped on sight so they
    // stop attracting workers.
    Group* group = nullptr;
    while (!active_groups_.empty()) {
      if (rr_cursor_ >= active_groups_.size()) rr_cursor_ = 0;
      Group* candidate = active_groups_[rr_cursor_];
      if (candidate->next.load(std::memory_order_relaxed) >=
          candidate->total) {
        UnlistLocked(candidate);
        continue;
      }
      group = candidate;
      ++rr_cursor_;
      break;
    }
    if (group == nullptr) continue;
    ++group->pins;  // The owner cannot free the group while pinned.
    lock.Unlock();
    RunGroupTasks(group, /*yield_to_other_groups=*/true);
    lock.Lock();
    --group->pins;
    if (group->pins == 0 &&
        group->done.load(std::memory_order_acquire) == group->total) {
      done_cv_.SignalAll();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t num_tasks,
                             const std::function<void(std::size_t)>& fn) {
  if (num_tasks == 0) return;
  // Inline paths: a single task or no workers (1-thread pool).
  if (num_tasks == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < num_tasks; ++i) fn(i);
    return;
  }
  Group group;
  group.job = &fn;
  group.total = num_tasks;
  {
    MutexLock lock(&mutex_);
    group.listed = true;
    active_groups_.push_back(&group);
    num_active_groups_.store(active_groups_.size(),
                             std::memory_order_relaxed);
  }
  work_cv_.SignalAll();
  // The calling thread drains its own group's counter; workers (and
  // other groups' callers, via their workers) help with whatever they
  // claim. Progress never depends on a worker being free, which is what
  // makes nested and concurrent calls deadlock-free.
  RunGroupTasks(&group, /*yield_to_other_groups=*/false);
  MutexLock lock(&mutex_);
  // Unlist before waiting so no new worker pins the group; the ones
  // already pinned finish their claimed index and wake us.
  UnlistLocked(&group);
  while (group.pins != 0 ||
         group.done.load(std::memory_order_acquire) != group.total) {
    done_cv_.Wait(&mutex_);
  }
}

}  // namespace ugs
