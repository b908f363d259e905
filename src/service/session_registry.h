#ifndef UGS_SERVICE_SESSION_REGISTRY_H_
#define UGS_SERVICE_SESSION_REGISTRY_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/graph_session.h"
#include "telemetry/metrics.h"
#include "util/status.h"
#include "util/sync.h"

namespace ugs {

/// Configuration of a SessionRegistry.
struct SessionRegistryOptions {
  /// Directory the registry opens graphs from. An id with an extension
  /// ("g.txt", "g.ugsc") resolves to exactly that file; an id without one
  /// prefers the binary mmap-able form and falls back to text:
  /// <graph_dir>/g.ugsc, then <graph_dir>/g, then <graph_dir>/g.txt.
  /// Empty disables open-on-demand (only Insert()ed sessions are
  /// served -- the in-memory mode tests and benches use).
  std::string graph_dir;
  /// Most sessions resident at once; opening past the budget evicts the
  /// least-recently-used unpinned entries. 0 = unlimited.
  std::size_t max_sessions = 8;
  /// Approximate resident-memory budget over all cached sessions
  /// (graph + adjacency; see ApproxSessionBytes). 0 = unlimited. A single
  /// session larger than the budget still loads (the registry never
  /// evicts the entry it is about to return).
  std::size_t max_resident_bytes = 0;
  /// Options applied to every session the registry opens.
  GraphSessionOptions session;
};

/// Monotonic counters of registry traffic (returned by copy; each field
/// is a relaxed read of its registry-backed counter).
struct RegistryCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t open_failures = 0;
  /// Successful opens by storage kind: text parses vs .ugsc mmaps. The
  /// split is the signal that packed graphs are actually being served
  /// from the fast path.
  std::uint64_t opens_text = 0;
  std::uint64_t opens_mmap = 0;
  /// Update batches applied (each one bumped some graph's version).
  std::uint64_t updates = 0;
};

/// Thread-safe graph-id -> GraphSession cache: the multi-graph core of the
/// serving layer. Sessions open on demand from a graph directory, stay
/// resident under an LRU policy bounded by entry and byte budgets, and are
/// handed out as ref-counted pins so an in-flight request keeps its
/// session alive even when eviction drops it from the cache -- eviction
/// unmaps an id, the memory goes when the last pin does.
class SessionRegistry {
 public:
  /// A pin on a resident session. Holding one keeps the session valid;
  /// destruction releases it. Copyable (shared pin).
  class Handle {
   public:
    Handle() = default;
    explicit Handle(std::shared_ptr<const GraphSession> session)
        : session_(std::move(session)) {}

    bool valid() const { return session_ != nullptr; }
    const GraphSession& operator*() const { return *session_; }
    const GraphSession* operator->() const { return session_.get(); }

   private:
    std::shared_ptr<const GraphSession> session_;
  };

  explicit SessionRegistry(SessionRegistryOptions options);

  /// Returns a pinned session for `id`, opening it from graph_dir on a
  /// miss (concurrent misses on the same id wait for one open instead of
  /// loading twice). InvalidArgument on ids that are empty or escape the
  /// graph directory ('/', '\', ".."); the loader's error (IOError /
  /// InvalidArgument) when the graph file is missing or malformed.
  [[nodiscard]] Result<Handle> Acquire(const std::string& id);

  /// Registers an already-built session under `id` (subject to the same
  /// eviction policy). InvalidArgument on invalid ids, FailedPrecondition
  /// when the id is already resident.
  [[nodiscard]] Status Insert(const std::string& id,
                              std::unique_ptr<GraphSession> session);

  /// Applies a batch of edge mutations to `id` atomically and returns the
  /// graph's new version. The batch either fully applies (the resident
  /// session is swapped for its successor, the update log grows, the
  /// version bumps by one) or fails typed with the graph -- and its
  /// version -- untouched. Updates are serialized per registry; queries
  /// pinning the old session finish against the old snapshot (sessions
  /// are immutable, the swap is copy-on-mutate). The log survives
  /// eviction: a reopened graph replays it, so version N always names
  /// the same edge list. Logs are in-memory only -- a process restart
  /// resets every graph to version 1 (docs/dynamic-graphs.md).
  [[nodiscard]] Result<std::uint64_t> ApplyUpdates(
      const std::string& id, std::span<const EdgeUpdate> updates);

  /// Current version of `id`: 1 for never-updated (or unknown) graphs,
  /// otherwise 1 + the number of applied update batches.
  std::uint64_t CurrentVersion(const std::string& id) const;

  RegistryCounters counters() const;

  /// Resident ids in most-recently-used-first order.
  std::vector<std::string> ResidentIds() const;

  std::size_t resident_sessions() const;
  std::size_t resident_bytes() const;

  /// One-line JSON snapshot of counters, budgets, and residency (the
  /// server's stats verb embeds it).
  std::string StatsJson() const;

  /// Registers the registry's counters and the open-latency histograms
  /// (split text parse vs .ugsc mmap) with `registry` (which must not
  /// outlive this object).
  void ExportMetrics(telemetry::Registry* registry) const;

  const SessionRegistryOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const GraphSession> session;  ///< null while opening.
    std::list<std::string>::iterator lru;  ///< into lru_, MRU at front.
    std::size_t bytes = 0;
    bool opening = false;
  };

  /// Per-graph mutation history. Never erased (eviction drops the
  /// session, not the history), so a reopened graph replays to exactly
  /// the version its clients were acked.
  struct UpdateState {
    std::uint64_t version = 1;
    std::vector<EdgeUpdate> log;  ///< All applied updates, in order.
  };

  /// Checks id syntax (non-empty, no path separators or "..").
  [[nodiscard]] static Status ValidateId(const std::string& id);

  /// Moves `it` to the MRU position.
  void Touch(Entry* entry) UGS_REQUIRES(mutex_);

  /// Evicts LRU entries until both budgets hold, never touching `keep`.
  void EvictToBudget(const std::string& keep) UGS_REQUIRES(mutex_);

  /// Inserts a freshly opened session for `id` (entry exists in opening
  /// state) and applies the budgets.
  Handle Commit(const std::string& id,
                std::shared_ptr<const GraphSession> session)
      UGS_REQUIRES(mutex_);

  /// Points the per-graph version gauge for `id` at `version`, creating
  /// and registering it on first use.
  void SetVersionGauge(const std::string& id, std::uint64_t version)
      UGS_REQUIRES(mutex_);

  SessionRegistryOptions options_;

  /// Serializes updaters (queries never take it): version bumps are
  /// strictly ordered, so "version N" names exactly one edge list.
  Mutex updates_mutex_;

  mutable Mutex mutex_;
  CondVar opened_cv_;  ///< Signaled when an open settles.
  std::unordered_map<std::string, Entry> entries_ UGS_GUARDED_BY(mutex_);
  /// Resident ids, MRU first.
  std::list<std::string> lru_ UGS_GUARDED_BY(mutex_);
  std::size_t resident_bytes_ UGS_GUARDED_BY(mutex_) = 0;
  std::unordered_map<std::string, UpdateState> update_states_
      UGS_GUARDED_BY(mutex_);
  /// Per-graph version gauges (never erased; registered lazily on first
  /// bump with the telemetry registry captured by ExportMetrics).
  std::unordered_map<std::string, std::unique_ptr<telemetry::Gauge>>
      version_gauges_ UGS_GUARDED_BY(mutex_);
  mutable telemetry::Registry* metrics_registry_ UGS_GUARDED_BY(mutex_) =
      nullptr;

  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter evictions_;
  telemetry::Counter open_failures_;
  telemetry::Counter opens_text_;
  telemetry::Counter opens_mmap_;
  telemetry::Counter updates_;
  telemetry::Histogram open_text_us_{telemetry::LatencyBucketsUs()};
  telemetry::Histogram open_mmap_us_{telemetry::LatencyBucketsUs()};
};

/// Resident footprint of a session the registry's byte budget is
/// denominated in. For mmap-backed graphs this is the actual mapped file
/// size (graph.external_bytes()), not an estimate; for heap-backed graphs
/// it approximates edge list + CSR adjacency + per-vertex arrays.
std::size_t ApproxSessionBytes(const GraphSession& session);

}  // namespace ugs

#endif  // UGS_SERVICE_SESSION_REGISTRY_H_
