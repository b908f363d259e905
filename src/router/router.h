#ifndef UGS_ROUTER_ROUTER_H_
#define UGS_ROUTER_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "router/hash_ring.h"
#include "service/client.h"
#include "service/frame_server.h"
#include "service/wire.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/status.h"
#include "util/sync.h"

namespace ugs {

/// One backend ugs_serve daemon.
struct ShardAddress {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Health of a shard as the router sees it. Routing preference is
/// up > draining > down -- draining and down shards are still *tried*
/// when nothing healthier remains (a stale verdict must not turn a
/// servable request into an error; every shard serves every graph, so
/// any live one can answer).
enum class ShardState { kUp, kDraining, kDown };

/// The string form used in stats JSON ("up" / "draining" / "down").
const char* ShardStateName(ShardState state);

/// Configuration of a Router.
struct RouterOptions {
  /// Frontend bind address / port (0 = ephemeral) / worker threads --
  /// same meanings as ServerOptions; workers here are forwarding slots,
  /// so size for fan-out concurrency, not CPU.
  std::string host = "127.0.0.1";
  int port = 0;
  int num_workers = 4;

  /// The shard fleet. Every shard must serve the same graph directory
  /// contents (replicas are byte-interchangeable); the ring decides
  /// which shard a graph id *prefers* for session/cache locality.
  std::vector<ShardAddress> shards;

  /// Replica set size per graph: a graph's requests spread over the
  /// first `replication` shards of its ring walk. 1 pins each graph to
  /// its primary (best cache locality); hot graphs can override below.
  std::size_t replication = 1;
  /// Per-graph replication overrides (graph id -> R) for hot graphs.
  std::unordered_map<std::string, std::size_t> graph_replication;

  /// Replicas raced per query: 2 sends each request to two replicas and
  /// takes the first reply (sound because responses are pure functions
  /// of (graph, request) -- both replicas hold byte-identical answers).
  /// 1 disables racing. Capped by the graph's replica count.
  int race = 1;
  /// Debug mode: wait for BOTH raced replies and assert they are
  /// byte-identical; a mismatch is answered with a typed Internal error
  /// and counted (it would mean the determinism contract broke).
  bool race_verify = false;

  /// Health monitor poll period; 0 disables the monitor thread (health
  /// then updates only from forwarding failures/successes).
  int health_interval_ms = 1000;

  /// Connect policy for shard links (used by forwarding and the
  /// monitor). Defaults to fail-fast; smoke scripts that race daemon
  /// startup set retries.
  ConnectOptions connect;

  /// Span recording and the slow-query log. The metrics registry and
  /// counters are always live; `enabled` gates only the per-request
  /// span bookkeeping (docs/observability.md).
  telemetry::ServiceOptions telemetry;
};

/// Monotonic counters of router traffic.
struct RouterStats {
  std::uint64_t connections = 0;  ///< Frontend connections accepted.
  std::uint64_t requests = 0;     ///< Query and update frames answered
                                  ///< with a result.
  std::uint64_t errors = 0;       ///< Frames answered with an error.
  std::uint64_t failovers = 0;    ///< Forwards retried on another shard.
  std::uint64_t raced = 0;        ///< Requests sent to two replicas.
  std::uint64_t race_mismatches = 0;  ///< Verify-mode byte differences.
  /// Up -> not-up transitions initiated by the health monitor (the
  /// forwarding path's own demotions count under failovers). Separating
  /// the two keeps "did a failover happen" observable even when the
  /// monitor demotes a dead shard before any request touches it.
  std::uint64_t monitor_demotions = 0;
  std::uint64_t uptime_ms = 0;
  std::uint64_t in_flight = 0;
  /// Update frames broadcast to the fleet (acked by every shard).
  std::uint64_t updates = 0;
  /// Update broadcasts that failed on some shard (typed error to the
  /// client; shard versions may skew until the next successful batch).
  std::uint64_t update_failures = 0;
};

/// A consistent-hash router in front of N ugs_serve shards, speaking
/// the wire protocol on both sides -- clients need no changes, and the
/// shards see an ordinary client. Each query routes by its graph id:
/// the ring's walk order names the replica set (first R entries) and
/// the failover order past it. Transport failures mark the shard
/// suspect and retry the next candidate; a shard's *typed error* reply
/// is forwarded as-is (it is deterministic too -- every shard would
/// answer the same). The empty stats verb aggregates all shards under a
/// {"router":...,"shards":[...]} schema (docs/sharding.md); the
/// graph-describe verb routes like a query.
///
/// Edge updates (kUpdate) are broadcast to EVERY shard, never raced:
/// any shard can serve any graph on failover, so all replicas must hold
/// the same version. The reply is the first shard's ack; a transport
/// failure on any shard fails the whole broadcast with a typed error
/// (the shards that acked keep the new version -- the skew is visible
/// in the aggregated stats' embedded per-shard registry sections; see
/// docs/dynamic-graphs.md).
///
/// Frontend transport (epoll reactor, pipelining, backpressure) and
/// request accounting are the same FrameServer ugs_serve runs on;
/// forwarding happens on its dispatch workers over per-shard pooled
/// connections.
class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the frontend and starts the health monitor. InvalidArgument
  /// when the shard list is empty or race/replication are inconsistent.
  [[nodiscard]] Status Start();

  /// The bound frontend port (after Start).
  int port() const { return server_.port(); }

  void Stop();

  RouterStats stats() const;

  /// The aggregated stats JSON (the empty stats verb's reply).
  std::string StatsJson() const;

  /// Current health of shard `index` (test/monitoring hook).
  ShardState shard_state(std::size_t index) const;

 private:
  /// Per-shard connection pool + health. Health transitions use plain
  /// atomics (monotonic counters, last-writer-wins state): the worst
  /// stale read routes one request to a worse candidate, which failover
  /// already handles.
  struct ShardLink {
    ShardAddress addr;
    std::atomic<ShardState> state{ShardState::kUp};
    std::atomic<int> consecutive_failures{0};

    /// Per-shard telemetry: forward latency (one send+receive on this
    /// shard, successes only, raced forwards included), transport
    /// failures, and race wins.
    telemetry::Histogram forward_us{telemetry::LatencyBucketsUs()};
    telemetry::Counter forward_failures;
    telemetry::Counter race_wins;

    Mutex mutex;
    /// Pooled connections.
    std::vector<Client> idle UGS_GUARDED_BY(mutex);
    /// Last health-poll JSON.
    std::string last_stats UGS_GUARDED_BY(mutex);
  };

  /// Pops a pooled idle connection; false when the pool is empty.
  bool TryPopIdle(ShardLink* shard, Client* conn);
  /// A pooled-or-fresh connection to the shard. Pooled connections can
  /// be stale (the shard restarted); callers treat a failure on one as
  /// "try again", which ForwardOnce does by draining the pool.
  [[nodiscard]] Result<Client> CheckoutConn(ShardLink* shard, bool* pooled);
  void ReturnConn(ShardLink* shard, Client conn);

  /// Candidate shard indices for `graph`, best first: healthy replicas
  /// in walk order, then healthy non-replicas (any shard can serve any
  /// graph -- cold, but correct), then draining, then down.
  std::vector<std::size_t> CandidateOrder(const std::string& graph) const;

  /// Health bookkeeping from the forwarding and monitor paths.
  /// `from_monitor` attributes an up -> not-up demotion to the health
  /// monitor (counted under monitor_demotions, not failovers).
  void NoteShardFailure(ShardLink* shard, bool from_monitor = false);
  void NoteShardSuccess(ShardLink* shard);

  // --- Forwarding (dispatch-worker side). ---

  ReplyFrame HandleFrame(FrameType type, const std::string& payload,
                         telemetry::RequestTrace* trace);
  /// Routes one decoded query (`payload` is its raw bytes, forwarded
  /// unchanged).
  ReplyFrame RouteQuery(const WireRequest& request,
                        const std::string& payload);
  /// Routes a graph-describe stats payload.
  ReplyFrame RouteStats(const std::string& payload);
  /// Broadcasts one decoded update batch (`payload` is its raw bytes)
  /// to every shard; all must ack or the client gets a typed error.
  ReplyFrame RouteUpdate(const std::string& payload);
  /// Sequential failover: forward `payload` to each candidate until one
  /// answers; typed IOError when every shard is unreachable.
  ReplyFrame ForwardWithFailover(FrameType type, const std::string& payload,
                                 const std::vector<std::size_t>& candidates);
  /// One send+receive on one shard; transport failures surface as a
  /// non-OK status (the failover signal), a shard's kError reply is a
  /// *successful* forward.
  [[nodiscard]] Result<Frame> ForwardOnce(ShardLink* shard, FrameType type,
                                          const std::string& payload);
  /// Races one request across two replicas, first reply wins (verify
  /// mode waits for both and asserts PayloadEquals). Empty optional
  /// when both transports failed -- the caller falls back to
  /// ForwardWithFailover.
  std::optional<ReplyFrame> RaceForward(const std::string& payload,
                                        ShardLink* a, ShardLink* b);
  /// The effective replica count for one graph (per-graph override or
  /// the default, clamped to the fleet size).
  std::size_t ReplicationFor(const std::string& graph) const;

  /// Registers the router's own metrics (routing counters, per-shard
  /// forward series) after the front end's.
  void BuildMetrics();

  // --- Health monitor. ---

  void MonitorLoop();
  /// One poll of one shard: connect + empty stats verb on a fresh
  /// probe connection, closed afterwards.
  void PollShard(ShardLink* shard);

  RouterOptions options_;
  HashRing ring_;
  std::vector<std::unique_ptr<ShardLink>> shards_;

  telemetry::Registry metrics_;
  telemetry::Counter failovers_;
  telemetry::Counter raced_;
  telemetry::Counter race_mismatches_;
  telemetry::Counter monitor_demotions_;
  telemetry::Counter updates_;
  telemetry::Counter update_failures_;

  std::thread monitor_;
  Mutex monitor_mutex_;
  CondVar monitor_cv_;  ///< Monitor: stop requested.
  bool monitor_stop_ UGS_GUARDED_BY(monitor_mutex_) = false;

  /// Last member: destruction joins the frontend's threads while the
  /// shard links they forward over are still alive. Owns the request
  /// telemetry and files every reply's outcome.
  FrameServer server_;
};

}  // namespace ugs

#endif  // UGS_ROUTER_ROUTER_H_
