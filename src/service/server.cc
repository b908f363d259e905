#include "service/server.h"

#include <cstdio>
#include <utility>

#include "query/query.h"

namespace ugs {

SessionRegistryOptions Server::MakeRegistryOptions() const {
  SessionRegistryOptions registry = options_.registry;
  if (options_.telemetry.enabled) {
    // Taking the address of the not-yet-constructed counter member is
    // fine: engines only dereference it after construction.
    registry.session.engine.worlds_sampled =
        const_cast<telemetry::Counter*>(&worlds_sampled_);
  }
  return registry;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      registry_(MakeRegistryOptions()),
      cache_(options_.cache),
      server_({.host = options_.host,
               .port = options_.port,
               .num_workers = options_.num_workers},
              options_.telemetry, &metrics_,
              [this](FrameType type, const std::string& payload,
                     telemetry::RequestTrace* trace) {
                switch (type) {
                  case FrameType::kRequest:
                    return ExecuteQuery(payload, trace);
                  case FrameType::kUpdate:
                    return ExecuteUpdate(payload, trace);
                  default:
                    return ExecuteStats(payload, trace);
                }
              }) {
  metrics_.AddCounter("ugs_worlds_sampled_total",
                      "Possible worlds drawn by the sample engines.", {},
                      &worlds_sampled_);
  cache_.ExportMetrics(&metrics_);
  registry_.ExportMetrics(&metrics_);
}

Server::~Server() { Stop(); }

Status Server::Start() { return server_.Start(); }

void Server::Stop() { server_.Stop(); }

// --- Request execution. ---

ReplyFrame Server::ExecuteQuery(const std::string& payload,
                                telemetry::RequestTrace* trace) {
  const bool traced = options_.telemetry.enabled;
  telemetry::StageClock clock(traced);
  Result<WireRequest> request = DecodeRequest(payload);
  clock.Stamp(trace, telemetry::Stage::kDecode);
  if (!request.ok()) return ErrorReply(request.status());
  if (traced) {
    trace->graph = request->graph;
    trace->query = CanonicalQueryName(request->request.query);
  }
  std::string key;
  std::uint64_t key_version = 0;
  if (cache_.enabled()) {
    // The key carries the graph's current version, so an update
    // invalidates exactly the old version's entries: this lookup can
    // never surface a pre-update payload.
    key_version = registry_.CurrentVersion(request->graph);
    key = ResultCache::Key(request->graph, key_version, request->request);
    std::shared_ptr<const std::string> hit = cache_.Lookup(key);
    clock.Stamp(trace, telemetry::Stage::kCacheLookup);
    if (hit != nullptr) {
      // A hit replays the byte-identical payload of the cold run --
      // sound because the result is a pure function of (graph id,
      // graph version, request), seed included -- and shares the
      // cached bytes instead of copying them.
      if (traced) trace->cache_hit = true;
      return {FrameType::kResult, std::move(hit)};
    }
  }
  Result<SessionRegistry::Handle> session = registry_.Acquire(request->graph);
  if (!session.ok()) return ErrorReply(session.status());
  // The pin (`session`) keeps the graph alive for the whole run even if
  // a concurrent open evicts it from the registry.
  Result<QueryResult> result = (*session)->Run(request->request);
  clock.Stamp(trace, telemetry::Stage::kExecute);
  if (!result.ok()) return ErrorReply(result.status());
  if (traced) {
    trace->estimator = EstimatorName(result->estimator);
    trace->samples = static_cast<std::uint64_t>(result->samples.num_samples);
  }
  auto encoded = std::make_shared<const std::string>(EncodeResult(*result));
  clock.Stamp(trace, telemetry::Stage::kEncode);
  if (cache_.enabled()) {
    // A concurrent update may have bumped the version between the
    // lookup and the pin; file the payload under the version the pinned
    // session actually ran at, never a stale key.
    if (result->graph_version != key_version) {
      key = ResultCache::Key(request->graph, result->graph_version,
                             request->request);
    }
    cache_.Insert(key, encoded);
  }
  return {FrameType::kResult, std::move(encoded)};
}

ReplyFrame Server::ExecuteStats(const std::string& payload,
                                telemetry::RequestTrace* trace) {
  if (payload.empty()) {
    return {FrameType::kStatsReply,
            std::make_shared<const std::string>(StatsJson())};
  }
  // Non-empty payload: describe one graph (opening it if needed), so
  // clients can size requests without shipping the graph.
  if (options_.telemetry.enabled) trace->graph = payload;
  Result<SessionRegistry::Handle> session = registry_.Acquire(payload);
  if (!session.ok()) return ErrorReply(session.status());
  const UncertainGraph& graph = (*session)->graph();
  return {FrameType::kStatsReply,
          std::make_shared<const std::string>(
              "{\"graph\":" + JsonEscaped(payload) +
              ",\"vertices\":" + std::to_string(graph.num_vertices()) +
              ",\"edges\":" + std::to_string(graph.num_edges()) + "}")};
}

ReplyFrame Server::ExecuteUpdate(const std::string& payload,
                                 telemetry::RequestTrace* trace) {
  const bool traced = options_.telemetry.enabled;
  telemetry::StageClock clock(traced);
  Result<WireUpdate> update = DecodeUpdate(payload);
  clock.Stamp(trace, telemetry::Stage::kDecode);
  if (!update.ok()) return ErrorReply(update.status());
  if (traced) trace->graph = update->graph;
  Result<std::uint64_t> version =
      registry_.ApplyUpdates(update->graph, update->updates);
  clock.Stamp(trace, telemetry::Stage::kExecute);
  if (!version.ok()) return ErrorReply(version.status());
  // Every entry cached under the pre-update version is now unreachable
  // (version-keyed lookups ask for *version); record the exact stale
  // count and let LRU retire the bytes.
  if (cache_.enabled()) cache_.Invalidate(update->graph, *version - 1);
  WireUpdateReply reply;
  reply.version = *version;
  reply.applied = static_cast<std::uint32_t>(update->updates.size());
  auto encoded = std::make_shared<const std::string>(EncodeUpdateReply(reply));
  clock.Stamp(trace, telemetry::Stage::kEncode);
  return {FrameType::kUpdateReply, std::move(encoded)};
}

// --- Stats. ---

ServerStats Server::stats() const {
  ServerStats stats;
  stats.connections = server_.connections();
  stats.requests = server_.requests();
  stats.errors = server_.errors();
  stats.uptime_ms = server_.uptime_ms();
  stats.in_flight = server_.in_flight();
  return stats;
}

std::string Server::StatsJson() const {
  ServerStats server = stats();
  const std::uint64_t worlds = worlds_sampled_.Value();
  char rate[40];
  std::snprintf(rate, sizeof(rate), "%.1f",
                server.uptime_ms > 0 ? static_cast<double>(worlds) * 1e3 /
                                           static_cast<double>(server.uptime_ms)
                                     : 0.0);
  return std::string("{\"server\":{\"backend\":\"epoll\"") +
         ",\"workers\":" + std::to_string(options_.num_workers) +
         ",\"connections\":" + std::to_string(server.connections) +
         ",\"requests\":" + std::to_string(server.requests) +
         ",\"errors\":" + std::to_string(server.errors) +
         ",\"uptime_ms\":" + std::to_string(server.uptime_ms) +
         ",\"in_flight\":" + std::to_string(server.in_flight) +
         "},\"cache\":" + cache_.StatsJson() +
         ",\"registry\":" + registry_.StatsJson() +
         ",\"telemetry\":" +
         server_.telemetry().Json(",\"worlds_sampled\":" +
                                  std::to_string(worlds) +
                                  ",\"samples_per_sec\":" + rate) +
         "}";
}

}  // namespace ugs
