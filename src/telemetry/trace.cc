#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace ugs {
namespace telemetry {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kDecode:
      return "decode";
    case Stage::kCacheLookup:
      return "cache_lookup";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kExecute:
      return "execute";
    case Stage::kEncode:
      return "encode";
    case Stage::kWrite:
      return "write";
  }
  return "unknown";
}

std::string SlowQueryLine(const RequestTrace& trace) {
  // Short per-stage keys keep the line grep-friendly: decode_ms,
  // cache_ms, queue_ms, execute_ms, encode_ms, write_ms.
  static const char* kStageKeys[kNumStages] = {
      "decode_ms", "cache_ms", "queue_ms", "execute_ms", "encode_ms",
      "write_ms"};
  char buf[160];
  std::string out = "slow-query graph=";
  out.append(trace.graph.empty() ? "-" : trace.graph);
  out.append(" query=");
  out.append(trace.query.empty() ? "-" : trace.query);
  out.append(" estimator=");
  out.append(trace.estimator.empty() ? "-" : trace.estimator);
  out.append(" status=");
  out.append(trace.ok ? "ok" : "error");
  std::snprintf(buf, sizeof(buf), " cache_hit=%d samples=%llu total_ms=%.3f",
                trace.cache_hit ? 1 : 0,
                static_cast<unsigned long long>(trace.samples),
                static_cast<double>(trace.total_us) / 1e3);
  out.append(buf);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    std::snprintf(buf, sizeof(buf), " %s=%.3f", kStageKeys[i],
                  static_cast<double>(trace.stage_us[i]) / 1e3);
    out.append(buf);
  }
  return out;
}

RequestTelemetry::RequestTelemetry(const ServiceOptions& options,
                                   const std::vector<std::string>& query_kinds,
                                   Registry* registry)
    : options_(options) {
  const auto add_kind = [this, registry](const std::string& kind) {
    kinds_.emplace_back(kind,
                        std::make_unique<Histogram>(LatencyBucketsUs()));
    registry->AddHistogram("ugs_request_latency_seconds",
                           "Request latency (decoded to socket) by kind.",
                           {{"kind", kind}}, kinds_.back().second.get(),
                           1e-6);
  };
  for (const std::string& kind : query_kinds) add_kind(kind);
  add_kind("stats");
  add_kind("update");
  add_kind("other");
  for (std::size_t i = 0; i < kNumStages; ++i) {
    stages_[i] = std::make_unique<Histogram>(LatencyBucketsUs());
    registry->AddHistogram("ugs_request_stage_seconds",
                           "Request time by pipeline stage.",
                           {{"stage", StageName(static_cast<Stage>(i))}},
                           stages_[i].get(), 1e-6);
  }
  registry->AddCounter("ugs_requests_total",
                       "Query and update frames answered with a result.", {},
                       &requests);
  registry->AddCounter("ugs_request_errors_total",
                       "Frames answered with an error.", {}, &errors);
  registry->AddCounter("ugs_slow_queries_total",
                       "Requests slower than the slow-query threshold.", {},
                       &slow_queries_);
}

void RequestTelemetry::Record(const RequestTrace& trace) {
  if (!options_.enabled) return;
  // Unlisted kinds fall through to "other", the last entry.
  auto kind = std::find_if(kinds_.begin(), kinds_.end() - 1,
                           [&trace](const auto& entry) {
                             return entry.first == trace.query;
                           });
  kind->second->Record(trace.total_us);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    stages_[i]->Record(trace.stage_us[i]);
  }
  const int slow_ms = options_.slow_query_ms;
  if (slow_ms > 0 &&
      trace.total_us >= static_cast<std::uint64_t>(slow_ms) * 1000) {
    slow_queries_.Add();
    UGS_LOG(WARNING) << SlowQueryLine(trace);
  }
}

std::string RequestTelemetry::Json(const std::string& extra) const {
  std::string out =
      std::string("{\"enabled\":") + (options_.enabled ? "true" : "false") +
      ",\"slow_query_ms\":" + std::to_string(options_.slow_query_ms) +
      ",\"slow_queries\":" + std::to_string(slow_queries_.Value()) +
      ",\"spans_recorded\":" + std::to_string(stages_[0]->Count()) + extra +
      ",\"request_ms\":{";
  bool first = true;
  for (const auto& [kind, histogram] : kinds_) {
    const HistogramSnapshot snapshot = histogram->Snapshot();
    if (snapshot.count == 0) continue;  // Keep the object compact.
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + kind + "\":" + PercentilesJson(snapshot);
  }
  out += "},\"stage_ms\":{";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    if (i > 0) out.push_back(',');
    out += std::string("\"") + StageName(static_cast<Stage>(i)) +
           "\":" + PercentilesJson(stages_[i]->Snapshot());
  }
  out += "}}";
  return out;
}

}  // namespace telemetry
}  // namespace ugs
