#ifndef UGS_UTIL_THREAD_POOL_H_
#define UGS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace ugs {

/// Shared-queue executor for data-parallel loops. A pool of `num_threads`
/// uses num_threads - 1 background workers plus the calling thread, so a
/// 1-thread pool runs everything inline with zero synchronization -- the
/// serial path stays the serial path.
///
/// Every ParallelFor call is a *task group*: loop indices are claimed
/// from the group's own atomic counter, workers pull work from any
/// active group (round-robin across groups when several overlap), and
/// completion is tracked per group. Multiple loops therefore run
/// concurrently on one pool -- overlapping requests interleave instead
/// of serializing behind a single in-flight loop -- including loops
/// driven by different caller threads and loops nested inside a running
/// task (a nested call enqueues its own group; its caller drains that
/// group's counter and then waits only for stragglers, so nesting can
/// never deadlock).
///
/// Because work is handed out as loop indices, callers that need
/// determinism must make each index's work self-contained (own RNG
/// stream, disjoint output slots); SampleEngine builds exactly that
/// contract on top. Which thread runs an index is scheduling; *what* an
/// index computes never is -- results are bit-identical at any thread
/// count and under any loop interleaving.
class ThreadPool {
 public:
  /// num_threads <= 0 selects the hardware concurrency.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(i) for every i in [0, num_tasks), distributing indices across
  /// the pool; blocks until all complete. Tasks must not throw. Safe to
  /// call from multiple threads at once and from inside a running task:
  /// each call is its own task group and all active groups make progress
  /// concurrently.
  void ParallelFor(std::size_t num_tasks,
                   const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static int HardwareThreads();

 private:
  /// One ParallelFor call in flight: an atomic claim counter, an atomic
  /// completion counter, and pool-mutex-guarded bookkeeping. Lives on
  /// the calling thread's stack; `pins` keeps workers from touching a
  /// group after its owner returns.
  struct Group {
    const std::function<void(std::size_t)>* job = nullptr;
    std::size_t total = 0;
    std::atomic<std::size_t> next{0};  ///< Next unclaimed index.
    std::atomic<std::size_t> done{0};  ///< Indices fully executed.
    std::size_t pins = 0;      ///< Workers inside the group (mutex_).
    bool listed = false;       ///< Present in active_groups_ (mutex_).
  };

  void WorkerLoop();
  /// Claims and runs indices of `group` until none remain. Workers pass
  /// yield_to_other_groups so one long loop cannot monopolize them while
  /// other groups are active; owners drain their own group fully.
  void RunGroupTasks(Group* group, bool yield_to_other_groups);
  /// Removes the group from active_groups_ (idempotent).
  void UnlistLocked(Group* group) UGS_REQUIRES(mutex_);

  int num_threads_ = 1;
  /// Fixed between construction and destruction, so reading it needs no
  /// lock.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar work_cv_;  ///< Workers: group listed or stop.
  CondVar done_cv_;  ///< Owners: group fully complete.
  /// Groups with claimable work.
  std::vector<Group*> active_groups_ UGS_GUARDED_BY(mutex_);
  std::atomic<std::size_t> num_active_groups_{0};
  /// Round-robin pick across groups.
  std::size_t rr_cursor_ UGS_GUARDED_BY(mutex_) = 0;
  bool stop_ UGS_GUARDED_BY(mutex_) = false;
};

}  // namespace ugs

#endif  // UGS_UTIL_THREAD_POOL_H_
