#ifndef UGS_TELEMETRY_TRACE_H_
#define UGS_TELEMETRY_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.h"

namespace ugs {
namespace telemetry {

/// Stages a request passes through inside the daemon, in pipeline
/// order. Each gets a wall-clock stamp in RequestTrace::stage_us.
enum class Stage {
  kDecode = 0,      ///< Wire payload -> QueryRequest.
  kCacheLookup,     ///< Result-cache probe (hit or miss).
  kQueueWait,       ///< Decoded-frame wait in the dispatch queue.
  kExecute,         ///< GraphSession::Run (sampling + estimation).
  kEncode,          ///< QueryResult -> wire payload.
  kWrite,           ///< Reply ready -> last byte handed to the socket.
};

inline constexpr std::size_t kNumStages = 6;

/// Prometheus-safe stage label ("decode", "cache_lookup", ...).
const char* StageName(Stage stage);

/// Per-request span breakdown, filled in as the request moves through
/// the pipeline and recorded once the reply bytes reach the socket.
struct RequestTrace {
  std::string graph;             ///< Graph id ("" for stats frames).
  std::string query;             ///< Query kind, or "stats" / "other".
  std::string estimator;         ///< Estimator chosen by the session.
  bool ok = true;                ///< False when the reply was kError.
  bool cache_hit = false;        ///< Served from the result cache.
  std::uint64_t samples = 0;     ///< Possible worlds drawn.
  std::uint64_t stage_us[kNumStages] = {};  ///< Per-stage wall micros.
  std::uint64_t total_us = 0;    ///< Frame decoded -> reply on socket.
};

/// Per-handler stage stopwatch: Stamp() writes the microseconds since
/// the previous stamp into one stage slot and restarts. All clock
/// reads vanish when constructed off (the tracing-disabled path).
class StageClock {
 public:
  explicit StageClock(bool on) : on_(on) {
    if (on_) last_ = std::chrono::steady_clock::now();
  }

  void Stamp(RequestTrace* trace, Stage stage) {
    if (!on_) return;
    const auto now = std::chrono::steady_clock::now();
    trace->stage_us[static_cast<std::size_t>(stage)] =
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(now - last_)
                .count());
    last_ = now;
  }

 private:
  bool on_;
  std::chrono::steady_clock::time_point last_{};
};

/// Service-level telemetry knobs shared by ugs_serve and ugs_router.
struct ServiceOptions {
  /// Record spans + latency histograms per request. Off = the transport
  /// and handler skip all span bookkeeping (the bench overhead
  /// baseline); the metrics registry and plain counters stay live.
  bool enabled = true;
  /// Log one structured slow-query line per request whose total time
  /// reaches this many milliseconds; 0 disables the log.
  int slow_query_ms = 0;
};

/// One structured slow-query log line:
/// `slow-query graph=g1 query=reliability estimator=sampled status=ok
///  cache_hit=0 samples=1000 total_ms=41.203 decode_ms=0.012 ...`.
std::string SlowQueryLine(const RequestTrace& trace);

/// The per-request telemetry of one serving front end (the FrameServer
/// under ugs_serve or ugs_router): the answered/error counters, request
/// latency by kind and by pipeline stage, the slow-query check, and the
/// "telemetry" object of the stats JSON. Everything is registered into
/// the given Registry at construction; the counters are live even when
/// spans are off.
class RequestTelemetry {
 public:
  /// `query_kinds` are the query labels in stats-JSON order; the frame
  /// kinds "stats" and "update" follow, then "other" for every kind not
  /// listed. `registry` is borrowed and must outlive this object.
  RequestTelemetry(const ServiceOptions& options,
                   const std::vector<std::string>& query_kinds,
                   Registry* registry);

  RequestTelemetry(const RequestTelemetry&) = delete;
  RequestTelemetry& operator=(const RequestTelemetry&) = delete;

  /// Whether spans are recorded (ServiceOptions::enabled).
  bool enabled() const { return options_.enabled; }

  /// Folds one completed span into the kind and stage histograms and
  /// logs it when it reaches the slow-query threshold. A no-op when
  /// spans are disabled.
  void Record(const RequestTrace& trace);

  /// The "telemetry" stats object. `extra` is a `,"key":value...`
  /// fragment spliced in after "spans_recorded".
  std::string Json(const std::string& extra = "") const;

  Counter requests;  ///< Query and update frames answered with a result.
  Counter errors;    ///< Frames answered with an error.

 private:
  const ServiceOptions options_;
  Counter slow_queries_;
  /// Latency by kind, in construction order with "other" last.
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> kinds_;
  /// Every recorded span stamps all stages, so any stage's count is the
  /// number of spans recorded.
  std::unique_ptr<Histogram> stages_[kNumStages];
};

}  // namespace telemetry
}  // namespace ugs

#endif  // UGS_TELEMETRY_TRACE_H_
