#include "router/router.h"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "query/query.h"

namespace ugs {

namespace {

std::uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

/// Raced replies must agree on everything deterministic. kResult frames
/// compare through PayloadEquals (the wall-time field reflects each
/// shard's own clock and is exempt by contract) AND must carry the same
/// graph-version stamp -- raced replicas answering from different
/// versions of the graph is a replication bug even when the payloads
/// happen to match. Anything else compares bytes.
bool RepliesAgree(const Frame& a, const Frame& b) {
  if (a.type != b.type) return false;
  if (a.type == FrameType::kResult) {
    Result<QueryResult> da = DecodeResult(a.payload);
    Result<QueryResult> db = DecodeResult(b.payload);
    if (!da.ok() || !db.ok()) return false;
    return da->graph_version == db->graph_version && PayloadEquals(*da, *db);
  }
  return a.payload == b.payload;
}

}  // namespace

const char* ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kUp:
      return "up";
    case ShardState::kDraining:
      return "draining";
    case ShardState::kDown:
      return "down";
  }
  return "unknown";
}

void Router::BuildMetrics() {
  metrics_.AddCounter("ugs_router_failovers_total",
                      "Forwards retried on another shard.", {}, &failovers_);
  metrics_.AddCounter("ugs_router_races_total",
                      "Requests sent to two replicas.", {}, &raced_);
  metrics_.AddCounter("ugs_router_race_mismatches_total",
                      "Verify-mode byte differences between raced replies.",
                      {}, &race_mismatches_);
  metrics_.AddCounter("ugs_router_monitor_demotions_total",
                      "Up -> not-up transitions initiated by the monitor.",
                      {}, &monitor_demotions_);
  metrics_.AddCounter("ugs_router_updates_total",
                      "Update frames broadcast to the fleet.", {}, &updates_);
  metrics_.AddCounter("ugs_router_update_failures_total",
                      "Update broadcasts that failed on some shard.", {},
                      &update_failures_);
  // One pass per series name, so each name's per-shard series render
  // under a single HELP/TYPE block.
  const auto label = [](const ShardLink& shard) {
    return std::vector<telemetry::Label>{
        {"shard", shard.addr.host + ":" + std::to_string(shard.addr.port)}};
  };
  for (const std::unique_ptr<ShardLink>& shard : shards_) {
    metrics_.AddHistogram("ugs_shard_forward_seconds",
                          "One send+receive on this shard (successes).",
                          label(*shard), &shard->forward_us, 1e-6);
  }
  for (const std::unique_ptr<ShardLink>& shard : shards_) {
    metrics_.AddCounter("ugs_shard_forward_failures_total",
                        "Transport failures forwarding to this shard.",
                        label(*shard), &shard->forward_failures);
  }
  for (const std::unique_ptr<ShardLink>& shard : shards_) {
    metrics_.AddCounter("ugs_shard_race_wins_total",
                        "Races this shard answered first.", label(*shard),
                        &shard->race_wins);
  }
}

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      ring_(options_.shards.size()),
      server_({.host = options_.host,
               .port = options_.port,
               .num_workers = options_.num_workers},
              options_.telemetry, &metrics_,
              [this](FrameType type, const std::string& payload,
                     telemetry::RequestTrace* trace) {
                return HandleFrame(type, payload, trace);
              }) {
  shards_.reserve(options_.shards.size());
  for (const ShardAddress& addr : options_.shards) {
    auto link = std::make_unique<ShardLink>();
    link->addr = addr;
    shards_.push_back(std::move(link));
  }
  BuildMetrics();
}

Router::~Router() { Stop(); }

Status Router::Start() {
  if (shards_.empty()) {
    return Status::InvalidArgument("router: at least one shard is required");
  }
  if (options_.race < 1) {
    return Status::InvalidArgument("router: --race must be >= 1");
  }
  if (options_.replication < 1) {
    return Status::InvalidArgument("router: --replication must be >= 1");
  }
  UGS_RETURN_IF_ERROR(server_.Start());
  if (options_.health_interval_ms > 0) {
    {
      // The previous monitor (if any) was joined in Stop, but a restart
      // still publishes the reset through the mutex the new monitor
      // reads it under.
      MutexLock lock(&monitor_mutex_);
      monitor_stop_ = false;
    }
    monitor_ = std::thread([this] { MonitorLoop(); });
  }
  return Status::OK();
}

void Router::Stop() {
  // Frontend first: no new forwards once the monitor is gone.
  server_.Stop();
  if (monitor_.joinable()) {
    {
      MutexLock lock(&monitor_mutex_);
      monitor_stop_ = true;
    }
    monitor_cv_.SignalAll();
    monitor_.join();
  }
}

ShardState Router::shard_state(std::size_t index) const {
  return shards_[index]->state.load();
}

// --- Connection pool. ---

bool Router::TryPopIdle(ShardLink* shard, Client* conn) {
  MutexLock lock(&shard->mutex);
  if (shard->idle.empty()) return false;
  *conn = std::move(shard->idle.back());
  shard->idle.pop_back();
  return true;
}

Result<Client> Router::CheckoutConn(ShardLink* shard, bool* pooled) {
  Client conn;
  if (TryPopIdle(shard, &conn)) {
    *pooled = true;
    return conn;
  }
  *pooled = false;
  return Client::Connect(shard->addr.host, shard->addr.port,
                         options_.connect);
}

void Router::ReturnConn(ShardLink* shard, Client conn) {
  if (!conn.connected()) return;
  MutexLock lock(&shard->mutex);
  shard->idle.push_back(std::move(conn));
}

// --- Placement. ---

std::size_t Router::ReplicationFor(const std::string& graph) const {
  std::size_t r = options_.replication;
  auto it = options_.graph_replication.find(graph);
  if (it != options_.graph_replication.end()) r = it->second;
  return std::max<std::size_t>(1, std::min(r, shards_.size()));
}

std::vector<std::size_t> Router::CandidateOrder(
    const std::string& graph) const {
  const std::vector<std::size_t> walk = ring_.WalkOrder(graph);
  const std::size_t r = ReplicationFor(graph);
  // Four buckets, each preserving walk order: healthy replicas first
  // (warm sessions, warm cache), then healthy non-replicas (cold but
  // correct -- every shard serves every graph), then draining, then
  // down. Unhealthy shards stay in the list: a stale health verdict
  // must not turn a servable request into an error.
  std::vector<std::size_t> order, healthy_rest, draining, down;
  order.reserve(walk.size());
  for (std::size_t i = 0; i < walk.size(); ++i) {
    switch (shards_[walk[i]]->state.load()) {
      case ShardState::kUp:
        (i < r ? order : healthy_rest).push_back(walk[i]);
        break;
      case ShardState::kDraining:
        draining.push_back(walk[i]);
        break;
      case ShardState::kDown:
        down.push_back(walk[i]);
        break;
    }
  }
  order.insert(order.end(), healthy_rest.begin(), healthy_rest.end());
  order.insert(order.end(), draining.begin(), draining.end());
  order.insert(order.end(), down.begin(), down.end());
  return order;
}

// --- Health. ---

void Router::NoteShardFailure(ShardLink* shard, bool from_monitor) {
  const int failures = shard->consecutive_failures.fetch_add(1) + 1;
  const ShardState prev = shard->state.exchange(
      failures >= 2 ? ShardState::kDown : ShardState::kDraining);
  if (from_monitor && prev == ShardState::kUp) monitor_demotions_.Add();
}

void Router::NoteShardSuccess(ShardLink* shard) {
  shard->consecutive_failures.store(0);
  shard->state.store(ShardState::kUp);
}

void Router::MonitorLoop() {
  for (;;) {
    for (const std::unique_ptr<ShardLink>& shard : shards_) {
      PollShard(shard.get());
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.health_interval_ms);
    MutexLock lock(&monitor_mutex_);
    while (!monitor_stop_) {
      if (monitor_cv_.WaitUntil(&monitor_mutex_, deadline)) break;
    }
    if (monitor_stop_) return;
  }
}

void Router::PollShard(ShardLink* shard) {
  // Fresh fail-fast connection: the poll must measure the shard, not
  // the pool, and must not burn retry backoff on a down shard.
  Result<Client> conn = Client::Connect(shard->addr.host, shard->addr.port);
  if (!conn.ok()) {
    NoteShardFailure(shard, /*from_monitor=*/true);
    return;
  }
  Result<std::string> stats = conn->Stats("");
  if (!stats.ok()) {
    NoteShardFailure(shard, /*from_monitor=*/true);
    return;
  }
  NoteShardSuccess(shard);
  MutexLock lock(&shard->mutex);
  shard->last_stats = std::move(*stats);
  // The probe closes as it goes out of scope rather than joining the
  // pool: pooling one per poll would grow the pool (and the shard's open
  // connections) without bound.
}

// --- Forwarding. ---

ReplyFrame Router::HandleFrame(FrameType type, const std::string& payload,
                               telemetry::RequestTrace* trace) {
  const bool traced = options_.telemetry.enabled;
  telemetry::StageClock clock(traced);
  ReplyFrame reply;
  if (type == FrameType::kStats) {
    if (payload.empty()) {
      return {FrameType::kStatsReply,
              std::make_shared<const std::string>(StatsJson())};
    }
    if (traced) trace->graph = payload;
    reply = RouteStats(payload);
  } else if (type == FrameType::kUpdate) {
    // Decode only to validate and to label the trace; the raw bytes are
    // what the shards receive.
    Result<WireUpdate> update = DecodeUpdate(payload);
    clock.Stamp(trace, telemetry::Stage::kDecode);
    if (!update.ok()) return ErrorReply(update.status());
    if (traced) trace->graph = update->graph;
    reply = RouteUpdate(payload);
  } else {
    Result<WireRequest> request = DecodeRequest(payload);
    clock.Stamp(trace, telemetry::Stage::kDecode);
    if (!request.ok()) return ErrorReply(request.status());
    if (traced) {
      trace->graph = request->graph;
      trace->query = CanonicalQueryName(request->request.query);
      trace->samples =
          static_cast<std::uint64_t>(request->request.num_samples);
    }
    reply = RouteQuery(*request, payload);
  }
  clock.Stamp(trace, telemetry::Stage::kExecute);
  return reply;
}

ReplyFrame Router::RouteQuery(const WireRequest& request,
                              const std::string& payload) {
  const std::string& graph = request.graph;

  if (options_.race >= 2) {
    // Race the first two healthy replicas (requests are pure, so both
    // hold byte-interchangeable answers). Fewer than two healthy
    // replicas: plain failover below.
    const std::vector<std::size_t> walk = ring_.WalkOrder(graph);
    const std::size_t r = ReplicationFor(graph);
    std::vector<std::size_t> racers;
    for (std::size_t i = 0; i < r && racers.size() < 2; ++i) {
      if (shards_[walk[i]]->state.load() == ShardState::kUp) {
        racers.push_back(walk[i]);
      }
    }
    if (racers.size() == 2) {
      std::optional<ReplyFrame> raced = RaceForward(
          payload, shards_[racers[0]].get(), shards_[racers[1]].get());
      if (raced.has_value()) return std::move(*raced);
      // Both racers' transports died: fall through to failover, which
      // re-reads health (the Note* calls above demoted them).
      failovers_.Add();
    }
  }
  return ForwardWithFailover(FrameType::kRequest, payload,
                             CandidateOrder(graph));
}

ReplyFrame Router::RouteStats(const std::string& payload) {
  // A graph describe routes like a query on that graph (warm shard
  // answers from its resident session); never raced -- it is one cheap
  // round trip.
  return ForwardWithFailover(FrameType::kStats, payload,
                             CandidateOrder(payload));
}

ReplyFrame Router::RouteUpdate(const std::string& payload) {
  updates_.Add();
  // Broadcast in shard-index order, never raced and never failed over:
  // every shard serves every graph on failover, so every shard must
  // apply the batch or the fleet's versions skew. Down shards are still
  // tried -- a stale health verdict must not silently skip a replica.
  std::optional<Frame> ack;
  std::size_t acked = 0;
  Status last = Status::OK();
  for (const std::unique_ptr<ShardLink>& link : shards_) {
    ShardLink* shard = link.get();
    Result<Frame> reply = ForwardOnce(shard, FrameType::kUpdate, payload);
    if (!reply.ok()) {
      NoteShardFailure(shard);
      last = reply.status();
      continue;
    }
    NoteShardSuccess(shard);
    if (reply->type == FrameType::kError) {
      // A typed rejection (bad endpoint, duplicate edge, unknown graph)
      // is deterministic -- every shard refuses the batch identically
      // and no version moves. Forward the shard's error as-is and stop:
      // the remaining shards would only repeat it.
      update_failures_.Add();
      return {reply->type,
              std::make_shared<const std::string>(std::move(reply->payload))};
    }
    ++acked;
    if (!ack.has_value()) ack = std::move(*reply);
  }
  if (acked < shards_.size()) {
    // Partial broadcast: the acked shards hold the new version, the
    // unreachable ones do not (visible as skew in the aggregated
    // stats). The client gets a typed error so it can retry; shard
    // restarts reset versions anyway (logs are in-memory).
    update_failures_.Add();
    return ErrorReply(Status::IOError(
        "router: update acked by " + std::to_string(acked) + "/" +
        std::to_string(shards_.size()) +
        " shards (last failure: " + last.message() + ")"));
  }
  Frame& first = *ack;
  return {first.type,
          std::make_shared<const std::string>(std::move(first.payload))};
}

ReplyFrame Router::ForwardWithFailover(
    FrameType type, const std::string& payload,
    const std::vector<std::size_t>& candidates) {
  Status last = Status::OK();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    ShardLink* shard = shards_[candidates[i]].get();
    Result<Frame> reply = ForwardOnce(shard, type, payload);
    if (reply.ok()) {
      NoteShardSuccess(shard);
      return {reply->type,
              std::make_shared<const std::string>(std::move(reply->payload))};
    }
    // Transport failure: demote the shard and try the next candidate.
    // Safe to retry even if the request reached the shard -- responses
    // are pure functions of (graph, request), so re-execution cannot
    // produce a different answer.
    NoteShardFailure(shard);
    last = reply.status();
    if (i + 1 < candidates.size()) failovers_.Add();
  }
  return ErrorReply(Status::IOError(
      "router: no shard available (" + std::to_string(candidates.size()) +
      " tried; last: " + last.message() + ")"));
}

Result<Frame> Router::ForwardOnce(ShardLink* shard, FrameType type,
                                  const std::string& payload) {
  // Pooled connections can be stale (shard restarted since the last
  // checkout): drain failing pooled connections, then give a fresh
  // connect exactly one chance.
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    bool pooled = false;
    Result<Client> conn = CheckoutConn(shard, &pooled);
    if (!conn.ok()) {
      shard->forward_failures.Add();
      return conn.status();
    }
    Status sent = conn->Send(type, payload);
    Result<Frame> reply = sent.ok() ? conn->Receive() : Result<Frame>(sent);
    if (reply.ok()) {
      ReturnConn(shard, std::move(*conn));
      shard->forward_us.Record(MicrosSince(start));
      return reply;
    }
    if (!pooled) {
      shard->forward_failures.Add();
      return reply.status();
    }
  }
}

std::optional<ReplyFrame> Router::RaceForward(const std::string& payload,
                                              ShardLink* a, ShardLink* b) {
  raced_.Add();
  struct Racer {
    ShardLink* shard;
    Client conn;
    bool live = false;
    std::chrono::steady_clock::time_point sent_at{};
  };
  Racer racers[2] = {{a, {}, false}, {b, {}, false}};
  for (Racer& racer : racers) {
    bool pooled = false;
    Result<Client> conn = CheckoutConn(racer.shard, &pooled);
    if (!conn.ok()) {
      NoteShardFailure(racer.shard);
      continue;
    }
    racer.sent_at = std::chrono::steady_clock::now();
    if (!conn->Send(FrameType::kRequest, payload).ok()) {
      // A stale pooled connection is not evidence against the shard;
      // a fresh one failing is.
      if (!pooled) NoteShardFailure(racer.shard);
      continue;
    }
    racer.conn = std::move(*conn);
    racer.live = true;
  }

  // Collect replies in arrival order: poll() both sockets, read whoever
  // is ready first. A racer whose transport dies mid-wait just drops
  // out; the other decides the request alone.
  Frame replies[2];
  int order[2] = {-1, -1};  ///< Racer index by arrival position.
  int arrived = 0;
  const int wanted = options_.race_verify ? 2 : 1;
  // Reads racer i's reply: an answer is a timed forward, a dead
  // transport demotes the shard. Either way the racer is done.
  auto receive = [&](int i) {
    Racer& racer = racers[i];
    Result<Frame> reply = racer.conn.Receive();
    if (reply.ok()) {
      racer.shard->forward_us.Record(MicrosSince(racer.sent_at));
      replies[i] = std::move(*reply);
      order[arrived++] = i;
      ReturnConn(racer.shard, std::move(racer.conn));
    } else {
      NoteShardFailure(racer.shard);
    }
    racer.live = false;
  };
  while (arrived < wanted) {
    pollfd fds[2];
    int racer_of_fd[2];
    int nfds = 0;
    for (int i = 0; i < 2; ++i) {
      if (racers[i].live) {
        fds[nfds] = {racers[i].conn.fd(), POLLIN, 0};
        racer_of_fd[nfds] = i;
        ++nfds;
      }
    }
    if (nfds == 0) break;
    if (nfds == 1 || arrived == 1) {
      // One racer left (or one reply already in hand): plain blocking
      // read decides it.
      receive(racer_of_fd[0]);
      continue;
    }
    if (::poll(fds, static_cast<nfds_t>(nfds), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int f = 0; f < nfds && arrived < wanted; ++f) {
      if ((fds[f].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      receive(racer_of_fd[f]);
    }
  }

  // A loser still owed a reply cannot go back to the pool (its stream
  // is tainted by the in-flight response); just drop the connection.
  for (Racer& racer : racers) {
    if (racer.live) racer.conn.Close();
  }

  if (arrived == 0) return std::nullopt;
  if (options_.race_verify && arrived == 2 &&
      !RepliesAgree(replies[0], replies[1])) {
    race_mismatches_.Add();
    return ErrorReply(Status::Internal(
        "router: raced replicas returned different replies for the same "
        "request -- determinism contract violated"));
  }
  racers[order[0]].shard->race_wins.Add();
  Frame& winner = replies[order[0]];
  return ReplyFrame{winner.type, std::make_shared<const std::string>(
                                     std::move(winner.payload))};
}

// --- Stats. ---

RouterStats Router::stats() const {
  RouterStats stats;
  stats.connections = server_.connections();
  stats.requests = server_.requests();
  stats.errors = server_.errors();
  stats.failovers = failovers_.Value();
  stats.raced = raced_.Value();
  stats.race_mismatches = race_mismatches_.Value();
  stats.monitor_demotions = monitor_demotions_.Value();
  stats.uptime_ms = server_.uptime_ms();
  stats.in_flight = server_.in_flight();
  stats.updates = updates_.Value();
  stats.update_failures = update_failures_.Value();
  return stats;
}

std::string Router::StatsJson() const {
  RouterStats router = stats();
  std::size_t healthy = 0;
  for (const std::unique_ptr<ShardLink>& shard : shards_) {
    if (shard->state.load() == ShardState::kUp) ++healthy;
  }
  std::string out = "{\"router\":{\"shards\":" +
                    std::to_string(shards_.size()) +
                    ",\"healthy\":" + std::to_string(healthy) +
                    ",\"replication\":" +
                    std::to_string(options_.replication) +
                    ",\"race\":" + std::to_string(options_.race) +
                    ",\"workers\":" + std::to_string(options_.num_workers) +
                    ",\"connections\":" + std::to_string(router.connections) +
                    ",\"requests\":" + std::to_string(router.requests) +
                    ",\"errors\":" + std::to_string(router.errors) +
                    ",\"failovers\":" + std::to_string(router.failovers) +
                    ",\"raced\":" + std::to_string(router.raced) +
                    ",\"race_mismatches\":" +
                    std::to_string(router.race_mismatches) +
                    ",\"monitor_demotions\":" +
                    std::to_string(router.monitor_demotions) +
                    ",\"uptime_ms\":" + std::to_string(router.uptime_ms) +
                    ",\"in_flight\":" + std::to_string(router.in_flight) +
                    ",\"updates\":" + std::to_string(router.updates) +
                    ",\"update_failures\":" +
                    std::to_string(router.update_failures) +
                    "},\"shards\":[";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    ShardLink* shard = shards_[i].get();
    std::string last_stats;
    {
      MutexLock lock(&shard->mutex);
      last_stats = shard->last_stats;
    }
    if (i > 0) out.push_back(',');
    out += "{\"addr\":" +
           JsonEscaped(shard->addr.host + ":" +
                       std::to_string(shard->addr.port)) +
           ",\"state\":\"" + ShardStateName(shard->state.load()) +
           // The shard's own {server,cache,registry} JSON from the last
           // health poll, embedded verbatim; null before the first
           // successful poll.
           "\",\"stats\":" + (last_stats.empty() ? "null" : last_stats) +
           "}";
  }
  out += "],\"telemetry\":" + server_.telemetry().Json() + "}";
  return out;
}

}  // namespace ugs
