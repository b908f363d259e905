#ifndef UGS_SERVICE_SERVER_H_
#define UGS_SERVICE_SERVER_H_

#include <cstdint>
#include <string>

#include "service/frame_server.h"
#include "service/result_cache.h"
#include "service/session_registry.h"
#include "service/wire.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/status.h"

namespace ugs {

/// Configuration of a Server.
struct ServerOptions {
  /// Bind address (IPv4 dotted-quad literal; "0.0.0.0" for all
  /// interfaces).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port() --
  /// what the tests and the smoke script do).
  int port = 0;
  /// Query execution threads: the request-level overlap knob. These are
  /// the dispatch pool draining decoded requests from all connections.
  /// Overlapping requests -- same graph or not -- interleave fully, down
  /// to their sample batches: each one's sampling loop is its own task
  /// group on the engine's executor. Responses are bit-identical at any
  /// worker count, because every result is a pure function of
  /// (graph, request).
  int num_workers = 1;
  /// Result cache in front of dispatch (disabled by default). Sound and
  /// exact: responses are pure functions of (graph id, request) -- the
  /// seed is part of the key -- so a hit replays the byte-identical
  /// payload of the cold run. See service/result_cache.h.
  ResultCacheOptions cache;
  /// The multi-graph registry behind the server.
  SessionRegistryOptions registry;
  /// Span recording and the slow-query log. The metrics registry and
  /// counters are always live; `enabled` gates only the per-request
  /// span bookkeeping (docs/observability.md).
  telemetry::ServiceOptions telemetry;
};

/// Monotonic counters of server traffic.
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;  ///< Query and update frames answered
                               ///< with a result.
  std::uint64_t errors = 0;    ///< Frames answered with an error.
  std::uint64_t uptime_ms = 0;  ///< Milliseconds since Start.
  std::uint64_t in_flight = 0;  ///< Requests accepted, not yet answered.
};

/// A TCP daemon serving the wire protocol (service/wire.h) over a
/// SessionRegistry, with an optional exact result cache in front of
/// query dispatch. Protocol per connection: the client sends kRequest,
/// kStats, or kUpdate frames and reads one reply frame for each
/// (kResult / kStatsReply / kUpdateReply on success, kError carrying
/// the typed Status otherwise);
/// replies always arrive in request order, so clients may pipeline
/// (docs/wire-protocol.md); either side closes when done. Request errors
/// (unknown graph, malformed payload, failed validation) are per-frame
/// -- the connection stays usable; only transport-level garbage (an
/// unparseable frame header) closes it.
///
/// Transport (epoll reactor, dispatch pool, reply ordering,
/// backpressure) and request accounting (counters, spans, the
/// Prometheus sub-verb) live in FrameServer -- the front end this class
/// shares with ugs_router; Server supplies the query/stats/update
/// execution on top.
///
/// Observability: every request's span (decode -> cache lookup -> queue
/// wait -> execute -> encode -> socket write) is stamped into a trace,
/// folded into per-kind and per-stage latency histograms, and logged
/// when slower than the slow-query threshold. The
/// stats verb's JSON grows a "telemetry" section, and the kStats
/// sub-verb kMetricsStatsVerb returns the Prometheus text exposition
/// (docs/observability.md).
///
///   ugs::Server server({.port = 7471, .registry = {.graph_dir = "graphs"}});
///   UGS_CHECK(server.Start().ok());
///   ...
///   server.Stop();
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the reactor and dispatch threads;
  /// returns once the socket is accepting. IOError when the address cannot be bound.
  [[nodiscard]] Status Start();

  /// The bound port (after Start); useful with port = 0.
  int port() const { return server_.port(); }

  /// Shuts down: stops accepting, stops reading new requests, and joins
  /// the reactor and dispatch threads. In-flight requests finish and
  /// their responses are delivered (best effort: a peer that stops
  /// reading forfeits its replies). Idempotent.
  void Stop();

  SessionRegistry& registry() { return registry_; }
  ResultCache& cache() { return cache_; }

  ServerStats stats() const;

  /// One-line JSON of server + cache + registry counters plus the
  /// "telemetry" section (the stats verb's reply; schema documented in
  /// docs/operations.md).
  std::string StatsJson() const;

 private:
  // --- Request execution (dispatch-worker side, via FrameServer's
  // handler). ---

  /// Decodes and runs one query payload into a reply frame, consulting
  /// the result cache before GraphSession::Run and filling it after.
  /// Stamps decode/cache/execute/encode stages and identity into
  /// `trace`.
  ReplyFrame ExecuteQuery(const std::string& payload,
                          telemetry::RequestTrace* trace);
  /// Runs one stats payload (empty = counters JSON, otherwise a graph
  /// id to describe) into a reply frame; FrameServer answers
  /// kMetricsStatsVerb itself.
  ReplyFrame ExecuteStats(const std::string& payload,
                          telemetry::RequestTrace* trace);
  /// Applies one batch of edge mutations through the registry, then
  /// retires the mutated graph's now-stale cache entries by version
  /// (exact invalidation -- no other graph's entries move). Replies
  /// kUpdateReply carrying the new version, or kError.
  ReplyFrame ExecuteUpdate(const std::string& payload,
                           telemetry::RequestTrace* trace);

  /// Registry options with the telemetry hooks patched in.
  SessionRegistryOptions MakeRegistryOptions() const;

  ServerOptions options_;
  SessionRegistry registry_;
  ResultCache cache_;

  telemetry::Registry metrics_;
  telemetry::Counter worlds_sampled_;

  /// Last member: destruction joins the transport threads before the
  /// registry/cache/metrics they execute against go away. Owns the
  /// request telemetry and files every reply's outcome.
  FrameServer server_;
};

}  // namespace ugs

#endif  // UGS_SERVICE_SERVER_H_
