#ifndef UGS_SERVICE_FRAME_SERVER_H_
#define UGS_SERVICE_FRAME_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/wire.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/status.h"
#include "util/sync.h"

namespace ugs {

/// One computed reply frame. The payload travels as a shared pointer so
/// a response moves producer -> reply slot -> write buffer without
/// copying multi-megabyte encodings (a cache hit shares the cached
/// bytes outright).
struct ReplyFrame {
  FrameType type = FrameType::kError;
  std::shared_ptr<const std::string> payload;
};

/// Configuration of a FrameServer.
struct FrameServerOptions {
  /// Bind address (IPv4 dotted-quad literal; "0.0.0.0" for all
  /// interfaces).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back with port()).
  int port = 0;
  /// Dispatch threads draining decoded frames from all connections.
  int num_workers = 1;
};

/// Typed error reply carrying `status`.
inline ReplyFrame ErrorReply(const Status& status) {
  return {FrameType::kError,
          std::make_shared<const std::string>(EncodeError(status))};
}

/// The transport tier shared by ugs_serve and ugs_router: an epoll
/// reactor speaking the wire protocol (service/wire.h) over TCP, with a
/// pool of dispatch workers running a caller-supplied handler per
/// decoded kRequest / kStats / kUpdate frame.
///
/// One reactor thread multiplexes every connection (nonblocking
/// sockets, incremental FrameDecoder reassembly, eventfd completion
/// wakeups). Each connection keeps an ordered reply window, so
/// pipelined requests are answered in request order even when the
/// dispatch pool finishes them out of order; reading pauses past
/// per-connection backlog budgets (read backpressure). Frames of any
/// other type are answered inline with a typed error; transport-level
/// garbage (an unparseable header) gets one final typed error and then
/// the connection closes.
///
/// The handler runs on the dispatch pool and must be thread-safe. It
/// receives the frame type (kRequest, kStats, or kUpdate), the raw
/// payload, and a per-request trace to stamp stage timings and identity
/// into, and returns the reply frame to deliver. The handler only
/// computes replies; the request accounting of the front end lives
/// here. FrameServer answers the kMetricsStatsVerb stats sub-verb
/// itself, labels stats and update spans by frame type, and files every
/// handler reply by one rule: kResult and kUpdateReply count as
/// requests, kError as an error (and marks the span failed),
/// kStatsReply as neither. Spans are folded into the RequestTelemetry
/// block once their reply bytes reach the socket.
class FrameServer {
 public:
  using Handler =
      std::function<ReplyFrame(FrameType type, const std::string& payload,
                               telemetry::RequestTrace* trace)>;

  /// `telemetry` configures the request block (spans, slow-query log).
  /// That block and the transport's own metrics are registered into
  /// `metrics`, whose Prometheus text answers kMetricsStatsVerb;
  /// `metrics` is borrowed and must outlive this server.
  FrameServer(FrameServerOptions options,
              const telemetry::ServiceOptions& telemetry,
              telemetry::Registry* metrics, Handler handler);
  ~FrameServer();

  FrameServer(const FrameServer&) = delete;
  FrameServer& operator=(const FrameServer&) = delete;

  /// Binds, listens, and spawns the reactor + dispatch threads; returns
  /// once the socket is accepting. IOError when the address cannot be
  /// bound.
  [[nodiscard]] Status Start();

  /// The bound port (after Start); useful with port = 0.
  int port() const { return port_; }

  /// Shuts down: stops accepting, stops reading new requests, and joins
  /// the reactor and dispatch threads. In-flight requests finish and
  /// their responses are delivered (best effort: a peer that stops
  /// reading forfeits its replies). Idempotent.
  void Stop();

  /// Connections accepted since Start (monotonic).
  std::uint64_t connections() const { return connections_.Value(); }

  /// Query and update frames answered with a result.
  std::uint64_t requests() const { return telemetry_.requests.Value(); }

  /// Frames answered with an error: the handler's kError replies plus
  /// the transport's own typed errors (unexpected frame type,
  /// unparseable header, mid-frame EOF).
  std::uint64_t errors() const {
    return telemetry_.errors.Value() + protocol_errors_.Value();
  }

  /// The request block (its Json() is the stats verb's "telemetry").
  const telemetry::RequestTelemetry& telemetry() const { return telemetry_; }

  /// Milliseconds since Start (0 before the first Start).
  std::uint64_t uptime_ms() const;

  /// Requests accepted but not yet answered (queued + executing on the
  /// dispatch pool) -- the readiness signal health monitors poll.
  std::uint64_t in_flight() const {
    const std::int64_t v = in_flight_.Value();
    return v > 0 ? static_cast<std::uint64_t>(v) : 0;
  }

 private:
  /// One multiplexed connection (defined in frame_server.cc;
  /// shared_ptr-held so a dispatched request outlives an eviction of
  /// its connection).
  struct Conn;

  /// One decoded frame awaiting execution on the dispatch pool.
  struct Job {
    std::shared_ptr<Conn> conn;
    std::uint64_t seq = 0;  ///< Reply slot within the connection.
    FrameType type = FrameType::kError;
    std::string payload;
    /// When the decoded frame entered the dispatch queue (queue-wait
    /// stage start).
    std::chrono::steady_clock::time_point arrival{};
  };

  /// Runs one dispatched frame (the handler, or the Prometheus text for
  /// kMetricsStatsVerb) and files the reply under the outcome rule.
  ReplyFrame Execute(const Job& job, telemetry::RequestTrace* trace);

  // --- Reactor (all Handle*/reactor state is reactor-thread-only except
  // the reply slots, which workers fill under Conn::mutex). ---

  [[nodiscard]] Status StartEpoll();
  void StopEpoll();
  void ReactorLoop();
  void DispatchLoop();
  void AcceptNewConnections();
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  void HandleWritable(const std::shared_ptr<Conn>& conn);
  /// Appends a ready, untraced transport-level typed error to the reply
  /// window and counts it as a protocol error.
  void QueueProtocolError(const std::shared_ptr<Conn>& conn,
                          const Status& status);
  /// Appends ready reply frames (in request order, prefix only) to the
  /// write buffer and flushes what the socket accepts.
  void PumpConnection(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  /// Re-arms the epoll interest mask from the connection's state.
  void UpdateEpollMask(const std::shared_ptr<Conn>& conn);
  /// Worker-side: fills reply slot `seq` and wakes the reactor.
  void CompleteJob(const std::shared_ptr<Conn>& conn, std::uint64_t seq,
                   ReplyFrame reply, telemetry::RequestTrace trace,
                   bool traced,
                   std::chrono::steady_clock::time_point arrival);
  void WakeReactor();

  FrameServerOptions options_;
  telemetry::Registry* const metrics_;
  /// Request counters, latency by kind (canonical query names +
  /// "stats" + "update" + "other") and by stage, slow-query log.
  telemetry::RequestTelemetry telemetry_;
  Handler handler_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::chrono::steady_clock::time_point started_at_{};
  bool ever_started_ = false;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread reactor_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;  ///< Reactor-only.
  std::vector<std::thread> dispatchers_;
  Mutex jobs_mutex_;
  CondVar jobs_cv_;  ///< Dispatchers: job queued or stop.
  std::deque<Job> jobs_ UGS_GUARDED_BY(jobs_mutex_);
  bool jobs_stop_ UGS_GUARDED_BY(jobs_mutex_) = false;
  Mutex completions_mutex_;
  std::vector<std::shared_ptr<Conn>> completions_
      UGS_GUARDED_BY(completions_mutex_);

  telemetry::Counter connections_;
  telemetry::Counter protocol_errors_;
  telemetry::Counter frames_dispatched_;
  telemetry::Counter read_bytes_;
  telemetry::Counter written_bytes_;
  telemetry::Gauge in_flight_;
  telemetry::Gauge dispatch_queue_depth_;
  telemetry::Gauge reply_window_depth_;
};

}  // namespace ugs

#endif  // UGS_SERVICE_FRAME_SERVER_H_
