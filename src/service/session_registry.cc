#include "service/session_registry.h"

#include <sys/stat.h>

#include <chrono>
#include <utility>

#include "graph/csr_format.h"
#include "service/wire.h"

namespace ugs {

SessionRegistry::SessionRegistry(SessionRegistryOptions options)
    : options_(std::move(options)) {}

namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

Status SessionRegistry::ValidateId(const std::string& id) {
  if (id.empty()) {
    return Status::InvalidArgument("registry: empty graph id");
  }
  if (id.find('/') != std::string::npos ||
      id.find('\\') != std::string::npos ||
      id.find("..") != std::string::npos) {
    return Status::InvalidArgument(
        "registry: graph id '" + id +
        "' must not contain path separators or '..'");
  }
  return Status::OK();
}

void SessionRegistry::Touch(Entry* entry) {
  lru_.splice(lru_.begin(), lru_, entry->lru);
}

void SessionRegistry::EvictToBudget(const std::string& keep) {
  while (!lru_.empty()) {
    const bool over_entries =
        options_.max_sessions > 0 && lru_.size() > options_.max_sessions;
    const bool over_bytes = options_.max_resident_bytes > 0 &&
                            resident_bytes_ > options_.max_resident_bytes;
    if (!over_entries && !over_bytes) break;
    const std::string& victim = lru_.back();
    if (victim == keep) break;  // Never evict the entry being returned.
    auto it = entries_.find(victim);
    resident_bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    evictions_.Add();
  }
}

SessionRegistry::Handle SessionRegistry::Commit(
    const std::string& id, std::shared_ptr<const GraphSession> session) {
  Entry& entry = entries_[id];
  entry.session = session;
  entry.opening = false;
  entry.bytes = ApproxSessionBytes(*session);
  lru_.push_front(id);
  entry.lru = lru_.begin();
  resident_bytes_ += entry.bytes;
  EvictToBudget(id);
  return Handle(std::move(session));
}

Result<SessionRegistry::Handle> SessionRegistry::Acquire(
    const std::string& id) {
  UGS_RETURN_IF_ERROR(ValidateId(id));
  MutexLock lock(&mutex_);
  for (;;) {
    auto it = entries_.find(id);
    if (it == entries_.end()) break;
    if (it->second.session != nullptr) {
      hits_.Add();
      Touch(&it->second);
      return Handle(it->second.session);
    }
    // Another thread is loading this id; wait for its open to settle
    // instead of loading the same graph twice.
    opened_cv_.Wait(&mutex_);
  }

  misses_.Add();
  if (options_.graph_dir.empty()) {
    open_failures_.Add();
    return Status::NotFound("registry: graph '" + id +
                            "' is not resident and the registry has no "
                            "graph directory to open it from");
  }
  Entry& slot = entries_[id];
  slot.opening = true;
  slot.lru = lru_.end();
  // Copy the mutation history now, under the same lock hold that
  // created the opening slot: ApplyUpdates waits for in-flight opens
  // before appending, so this copy stays the id's authoritative history
  // until Commit.
  UpdateState replay;
  auto state_it = update_states_.find(id);
  if (state_it != update_states_.end()) replay = state_it->second;
  lock.Unlock();

  // The open itself runs unlocked: a slow load must not block hits on
  // other graphs. Ids with an explicit extension name exactly one file;
  // extensionless ids prefer the binary mmap-able form over a text
  // parse: "<id>.ugsc", then "<id>", then "<id>.txt". Preference is by
  // existence, not by open success -- a present-but-corrupt .ugsc is
  // surfaced as its typed error instead of being silently masked by a
  // stale text fallback.
  const std::string path = options_.graph_dir + "/" + id;
  std::string chosen = path;
  if (id.find('.') == std::string::npos) {
    if (FileExists(path + kCsrExtension)) {
      chosen = path + kCsrExtension;
    } else if (!FileExists(path)) {
      chosen = path + ".txt";
    }
  }
  const auto open_start = std::chrono::steady_clock::now();
  Result<std::unique_ptr<GraphSession>> opened =
      GraphSession::Open(chosen, options_.session);
  const std::uint64_t open_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - open_start)
          .count());
  const bool opened_as_view = opened.ok() && (*opened)->graph().is_view();
  if (opened.ok() && !replay.log.empty()) {
    // Replay the mutation history so the reopened graph serves exactly
    // the edge list its acked version names. Replay failure is an open
    // failure: serving a stale snapshot under a bumped version would
    // break the invalidation contract.
    Result<std::unique_ptr<GraphSession>> replayed =
        (*opened)->WithUpdates(replay.log, replay.version);
    if (replayed.ok()) {
      opened = std::move(replayed);
    } else {
      opened = Status(replayed.status().code(),
                      "registry: replaying " +
                          std::to_string(replay.log.size()) +
                          " updates onto reopened '" + id +
                          "' failed: " + replayed.status().message());
    }
  }

  lock.Lock();
  if (!opened.ok()) {
    entries_.erase(id);
    open_failures_.Add();
    opened_cv_.SignalAll();
    return opened.status();
  }
  // Count by how the file itself opened (replaying an update log onto
  // an mmap open leaves a heap-built graph, but it still came off the
  // fast path).
  if (opened_as_view) {
    opens_mmap_.Add();
    open_mmap_us_.Record(open_us);
  } else {
    opens_text_.Add();
    open_text_us_.Record(open_us);
  }
  Handle handle = Commit(
      id, std::shared_ptr<const GraphSession>(std::move(opened.value())));
  opened_cv_.SignalAll();
  return handle;
}

Status SessionRegistry::Insert(const std::string& id,
                               std::unique_ptr<GraphSession> session) {
  UGS_RETURN_IF_ERROR(ValidateId(id));
  if (session == nullptr) {
    return Status::InvalidArgument("registry: null session for '" + id + "'");
  }
  MutexLock lock(&mutex_);
  if (entries_.find(id) != entries_.end()) {
    return Status::FailedPrecondition("registry: graph '" + id +
                                      "' is already resident");
  }
  Commit(id, std::shared_ptr<const GraphSession>(std::move(session)));
  return Status::OK();
}

Result<std::uint64_t> SessionRegistry::ApplyUpdates(
    const std::string& id, std::span<const EdgeUpdate> updates) {
  UGS_RETURN_IF_ERROR(ValidateId(id));
  if (updates.empty()) {
    return Status::InvalidArgument(
        "registry: empty update batch for '" + id +
        "' (a no-op must not bump the version)");
  }
  // One updater at a time: version bumps are strictly ordered, so
  // "version N of graph g" names exactly one edge list, fleet-wide.
  MutexLock serialize(&updates_mutex_);

  // Pin the current snapshot (opening it -- and replaying its history --
  // if it was evicted). The successor builds unlocked: a graph copy and
  // CSR rebuild must not stall queries on other graphs.
  Result<Handle> base = Acquire(id);
  if (!base.ok()) return base.status();
  const std::uint64_t new_version = (*base)->version() + 1;
  Result<std::unique_ptr<GraphSession>> successor =
      (*base)->WithUpdates(updates, new_version);
  if (!successor.ok()) return successor.status();
  std::shared_ptr<const GraphSession> replacement(
      std::move(successor.value()));

  MutexLock lock(&mutex_);
  // An open of this id racing the swap could Commit a pre-update
  // session over the successor; wait until any in-flight open settles
  // (its replay history was copied before this batch existed, so it
  // commits the version the pin above saw).
  auto it = entries_.find(id);
  while (it != entries_.end() && it->second.opening) {
    opened_cv_.Wait(&mutex_);
    it = entries_.find(id);
  }
  UpdateState& state = update_states_[id];
  state.version = new_version;
  state.log.insert(state.log.end(), updates.begin(), updates.end());
  updates_.Add();
  SetVersionGauge(id, new_version);
  if (it != entries_.end() && it->second.session != nullptr) {
    resident_bytes_ -= it->second.bytes;
    it->second.session = replacement;
    it->second.bytes = ApproxSessionBytes(*replacement);
    resident_bytes_ += it->second.bytes;
    Touch(&it->second);
    EvictToBudget(id);
  }
  return new_version;
}

std::uint64_t SessionRegistry::CurrentVersion(const std::string& id) const {
  MutexLock lock(&mutex_);
  auto it = update_states_.find(id);
  return it == update_states_.end() ? 1 : it->second.version;
}

void SessionRegistry::SetVersionGauge(const std::string& id,
                                      std::uint64_t version) {
  std::unique_ptr<telemetry::Gauge>& gauge = version_gauges_[id];
  const bool fresh = gauge == nullptr;
  if (fresh) gauge = std::make_unique<telemetry::Gauge>();
  gauge->Set(static_cast<std::int64_t>(version));
  // Lazy registration keeps never-updated graphs out of the exposition;
  // the telemetry registry locks internally, so registering after
  // startup is safe.
  if (fresh && metrics_registry_ != nullptr) {
    metrics_registry_->AddGauge("ugs_graph_version",
                                "Current version of each updated graph.",
                                {{"graph", id}}, gauge.get());
  }
}

RegistryCounters SessionRegistry::counters() const {
  RegistryCounters counters;
  counters.hits = hits_.Value();
  counters.misses = misses_.Value();
  counters.evictions = evictions_.Value();
  counters.open_failures = open_failures_.Value();
  counters.opens_text = opens_text_.Value();
  counters.opens_mmap = opens_mmap_.Value();
  counters.updates = updates_.Value();
  return counters;
}

std::vector<std::string> SessionRegistry::ResidentIds() const {
  MutexLock lock(&mutex_);
  return {lru_.begin(), lru_.end()};
}

std::size_t SessionRegistry::resident_sessions() const {
  MutexLock lock(&mutex_);
  return lru_.size();
}

std::size_t SessionRegistry::resident_bytes() const {
  MutexLock lock(&mutex_);
  return resident_bytes_;
}

std::string SessionRegistry::StatsJson() const {
  const RegistryCounters counters = this->counters();
  MutexLock lock(&mutex_);
  std::string out = "{\"hits\":" + std::to_string(counters.hits) +
                    ",\"misses\":" + std::to_string(counters.misses) +
                    ",\"evictions\":" + std::to_string(counters.evictions) +
                    ",\"open_failures\":" +
                    std::to_string(counters.open_failures) +
                    ",\"opens_text\":" + std::to_string(counters.opens_text) +
                    ",\"opens_mmap\":" + std::to_string(counters.opens_mmap) +
                    ",\"resident_sessions\":" +
                    std::to_string(lru_.size()) +
                    ",\"resident_bytes\":" +
                    std::to_string(resident_bytes_) +
                    ",\"max_sessions\":" +
                    std::to_string(options_.max_sessions) +
                    ",\"max_resident_bytes\":" +
                    std::to_string(options_.max_resident_bytes) +
                    ",\"resident\":[";
  bool first = true;
  // MRU first, one object per resident session. Ids in lru_ are always
  // committed (opening slots join the list only at Commit), so the
  // session pointer is never null here.
  for (const std::string& id : lru_) {
    if (!first) out.push_back(',');
    first = false;
    const Entry& entry = entries_.at(id);
    out += "{\"id\":" + JsonEscaped(id) +
           ",\"bytes\":" + std::to_string(entry.bytes) +
           ",\"engine_threads\":" +
           std::to_string(entry.session->engine().num_threads()) +
           ",\"version\":" + std::to_string(entry.session->version()) + "}";
  }
  // Additive fields ride after the stable prefix (docs/operations.md).
  out += "],\"updates\":" + std::to_string(counters.updates) + "}";
  return out;
}

void SessionRegistry::ExportMetrics(telemetry::Registry* registry) const {
  {
    // Remember the registry so per-graph version gauges created by later
    // updates can register themselves (mutex_ also guards the gauge map).
    MutexLock lock(&mutex_);
    metrics_registry_ = registry;
  }
  registry->AddCounter("ugs_registry_lookups_total",
                       "Session-registry lookups by outcome.",
                       {{"outcome", "hit"}}, &hits_);
  registry->AddCounter("ugs_registry_lookups_total",
                       "Session-registry lookups by outcome.",
                       {{"outcome", "miss"}}, &misses_);
  registry->AddCounter("ugs_registry_evictions_total",
                       "Sessions evicted past the residency budgets.", {},
                       &evictions_);
  registry->AddCounter("ugs_registry_open_failures_total",
                       "Graph opens that failed.", {}, &open_failures_);
  registry->AddCounter("ugs_registry_opens_total",
                       "Successful graph opens by storage kind.",
                       {{"storage", "text"}}, &opens_text_);
  registry->AddCounter("ugs_registry_opens_total",
                       "Successful graph opens by storage kind.",
                       {{"storage", "mmap"}}, &opens_mmap_);
  registry->AddHistogram("ugs_graph_open_seconds",
                         "Graph open latency by storage kind.",
                         {{"storage", "text"}}, &open_text_us_, 1e-6);
  registry->AddHistogram("ugs_graph_open_seconds",
                         "Graph open latency by storage kind.",
                         {{"storage", "mmap"}}, &open_mmap_us_, 1e-6);
  registry->AddCounter("ugs_updates_total",
                       "Edge-update batches applied (each bumps a graph "
                       "version).",
                       {}, &updates_);
}

std::size_t ApproxSessionBytes(const GraphSession& session) {
  const UncertainGraph& graph = session.graph();
  if (graph.is_view()) {
    // mmap-backed: the residency cost is the mapped file itself (page
    // cache), reported exactly, plus the session object.
    return sizeof(GraphSession) + graph.external_bytes();
  }
  return sizeof(GraphSession) +
         graph.num_edges() *
             (sizeof(UncertainEdge) + 2 * sizeof(AdjacencyEntry)) +
         graph.num_vertices() *
             (sizeof(std::uint64_t) + sizeof(double)) +
         sizeof(std::uint64_t);
}

}  // namespace ugs
