#include "service/frame_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

#include "query/query.h"

namespace ugs {

namespace {

/// Transient-error nap for the accept path.
void NapBriefly() {
  timespec nap{0, 10 * 1000 * 1000};  // 10 ms.
  nanosleep(&nap, nullptr);
}

/// Read-backpressure budgets: reading pauses while a connection holds
/// this many unflushed output bytes or open reply slots, so a client
/// that pipelines without draining replies cannot grow server memory
/// without bound. Soft bounds:
/// frames already received when the budget trips are still decoded and
/// dispatched -- the overshoot is at most one socket receive buffer's
/// worth, and pausing recv() makes the peer's kernel absorb the rest.
constexpr std::size_t kMaxConnOutBytes = 64u << 20;
constexpr std::uint64_t kMaxConnOpenSlots = 1024;

std::uint64_t ElapsedUs(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

/// One multiplexed connection. All fields except the reply window are
/// touched only by the reactor thread; the reply window (replies /
/// base_seq / next_seq / inflight / closed) is shared with the dispatch
/// workers under `mutex`.
struct FrameServer::Conn {
  /// One reply slot. Slots are allocated in frame-arrival order and
  /// flushed strictly front-to-back, which is what guarantees a
  /// pipelining client reads replies in request order even when the
  /// dispatch pool finishes them out of order.
  struct Reply {
    bool ready = false;
    ReplyFrame frame;
    /// Span carried from dispatch to the write path (traced requests
    /// only; inline transport errors travel untraced).
    telemetry::RequestTrace trace;
    bool traced = false;
    std::chrono::steady_clock::time_point arrival{};
    std::chrono::steady_clock::time_point ready_at{};
  };

  /// A traced reply whose bytes sit in the write buffer; finalized
  /// (write-stage stamp + sink) once `bytes_flushed` passes its end
  /// offset. Reactor-only.
  struct PendingWrite {
    std::uint64_t end_offset = 0;
    telemetry::RequestTrace trace;
    std::chrono::steady_clock::time_point arrival{};
    std::chrono::steady_clock::time_point ready_at{};
  };

  int fd = -1;
  FrameDecoder decoder;  ///< Incremental input reassembly.
  std::string out;       ///< Encoded reply bytes awaiting the socket.
  std::size_t out_off = 0;
  bool reading = true;  ///< EPOLLIN wanted; cleared on EOF/garbage/stop.
  bool close_after_flush = false;
  bool peer_eof = false;
  std::uint32_t armed_mask = 0;  ///< Events currently registered.
  int stop_strikes = 0;          ///< Stop()-time no-progress ticks.
  std::deque<PendingWrite> pending_writes;  ///< Reactor-only.
  std::uint64_t bytes_enqueued = 0;  ///< Lifetime bytes appended to out.
  std::uint64_t bytes_flushed = 0;   ///< Lifetime bytes sent to the socket.

  Mutex mutex;
  /// Window [base_seq, next_seq).
  std::deque<Reply> replies UGS_GUARDED_BY(mutex);
  /// Seq of replies.front().
  std::uint64_t base_seq UGS_GUARDED_BY(mutex) = 0;
  std::uint64_t next_seq UGS_GUARDED_BY(mutex) = 0;
  /// Slots awaiting a dispatch worker.
  std::size_t inflight UGS_GUARDED_BY(mutex) = 0;
  /// Reactor closed the fd; workers discard. Guarded so the close is
  /// atomic with the window accounting it freezes.
  bool closed UGS_GUARDED_BY(mutex) = false;
};

FrameServer::FrameServer(FrameServerOptions options,
                         const telemetry::ServiceOptions& telemetry,
                         telemetry::Registry* metrics, Handler handler)
    : options_(std::move(options)),
      metrics_(metrics),
      telemetry_(telemetry, KnownQueryNames(), metrics),
      handler_(std::move(handler)) {
  // The transport's own series follow the request block.
  metrics_->AddCounter("ugs_connections_total",
                       "Connections accepted since start.", {},
                       &connections_);
  metrics_->AddCounter(
      "ugs_protocol_errors_total",
      "Frames answered with a transport-level typed error.", {},
      &protocol_errors_);
  metrics_->AddCounter("ugs_frames_dispatched_total",
                       "Decoded frames handed to the dispatch pool.", {},
                       &frames_dispatched_);
  metrics_->AddCounter("ugs_read_bytes_total",
                       "Bytes read from client sockets.", {}, &read_bytes_);
  metrics_->AddCounter("ugs_written_bytes_total",
                       "Bytes written to client sockets.", {},
                       &written_bytes_);
  metrics_->AddGauge("ugs_in_flight_requests",
                     "Requests accepted but not yet answered.", {},
                     &in_flight_);
  metrics_->AddGauge("ugs_dispatch_queue_depth",
                     "Decoded frames waiting for a dispatch worker.", {},
                     &dispatch_queue_depth_);
  metrics_->AddGauge(
      "ugs_reply_window_depth",
      "Open reply slots across connections (pipelining depth).", {},
      &reply_window_depth_);
}

FrameServer::~FrameServer() { Stop(); }

Status FrameServer::Start() {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server: already started");
  }
  if (options_.num_workers <= 0) {
    return Status::InvalidArgument("server: num_workers must be positive");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("server: socket failed: ") +
                           std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("server: invalid bind address '" +
                                   options_.host + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status(StatusCode::kIOError,
                  "server: bind to " + options_.host + ":" +
                      std::to_string(options_.port) +
                      " failed: " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    Status status(StatusCode::kIOError,
                  std::string("server: listen failed: ") +
                      std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    Status status(StatusCode::kIOError,
                  std::string("server: getsockname failed: ") +
                      std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stopping_.store(false);

  // Stamp the start time before StartEpoll spawns any thread: a stats
  // request served by a dispatch worker reads started_at_ and
  // ever_started_ through uptime_ms(), and thread creation is the only
  // thing ordering these plain writes before those reads.
  started_at_ = std::chrono::steady_clock::now();
  ever_started_ = true;
  Status started = StartEpoll();
  if (!started.ok()) {
    ever_started_ = false;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return started;
  }
  return started;
}

void FrameServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  StopEpoll();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

std::uint64_t FrameServer::uptime_ms() const {
  if (!ever_started_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started_at_)
          .count());
}

ReplyFrame FrameServer::Execute(const Job& job,
                                telemetry::RequestTrace* trace) {
  if (job.type == FrameType::kStats && job.payload == kMetricsStatsVerb) {
    // The Prometheus sub-verb. Safe to claim this name: graph ids with
    // '/' never reach a session registry. A router answers it too: its
    // metrics describe the routing tier, and each shard's exposition is
    // one `--metrics` call away.
    return {FrameType::kStatsReply,
            std::make_shared<const std::string>(metrics_->PrometheusText())};
  }
  ReplyFrame reply = handler_(job.type, job.payload, trace);
  switch (reply.type) {
    case FrameType::kResult:
    case FrameType::kUpdateReply:
      telemetry_.requests.Add();
      break;
    case FrameType::kError:
      telemetry_.errors.Add();
      trace->ok = false;
      break;
    default:  // kStatsReply: neither a request nor an error.
      break;
  }
  return reply;
}

// --- Reactor. ---

Status FrameServer::StartEpoll() {
  int flags = ::fcntl(listen_fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::IOError(
        std::string("server: cannot set listener nonblocking: ") +
        std::strerror(errno));
  }
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("server: epoll_create1 failed: ") +
                           std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    Status status(StatusCode::kIOError,
                  std::string("server: eventfd failed: ") +
                      std::strerror(errno));
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    return status;
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);

  {
    // No dispatcher exists yet, but a restarted server reuses the mutex
    // the previous generation's workers synchronized on -- reset the
    // stop flag under it like every other access.
    MutexLock lock(&jobs_mutex_);
    jobs_stop_ = false;
  }
  dispatchers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    dispatchers_.emplace_back([this] { DispatchLoop(); });
  }
  reactor_ = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void FrameServer::StopEpoll() {
  WakeReactor();
  // The reactor exits once every connection is closed, which requires
  // all their in-flight jobs to complete -- so the dispatchers must
  // still be running while we join it.
  reactor_.join();
  {
    MutexLock lock(&jobs_mutex_);
    jobs_stop_ = true;
  }
  jobs_cv_.SignalAll();
  for (std::thread& dispatcher : dispatchers_) dispatcher.join();
  dispatchers_.clear();
  ::close(wake_fd_);
  wake_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
}

void FrameServer::WakeReactor() {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is already nonzero: the reactor will wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void FrameServer::ReactorLoop() {
  std::vector<epoll_event> events(64);
  bool draining = false;  ///< Stop() observed; listener deregistered.
  for (;;) {
    if (stopping_.load() && !draining) {
      draining = true;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      // Stop reading everywhere; pump once so idle connections (nothing
      // in flight, nothing buffered) close immediately.
      std::vector<std::shared_ptr<Conn>> snapshot;
      snapshot.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) snapshot.push_back(conn);
      for (const std::shared_ptr<Conn>& conn : snapshot) {
        conn->reading = false;
        PumpConnection(conn);
      }
    }
    if (draining && conns_.empty()) return;

    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               draining ? 100 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // A dead epoll fd: nothing left to drive.
    }
    if (n == 0) {
      // Drain-phase tick: a connection whose jobs are all done but whose
      // output is not moving has a peer that stopped reading; after two
      // ticks with no progress it forfeits its replies. Connections with
      // work still in flight are always waited for.
      std::vector<std::shared_ptr<Conn>> snapshot;
      snapshot.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) snapshot.push_back(conn);
      for (const std::shared_ptr<Conn>& conn : snapshot) {
        std::size_t inflight;
        {
          MutexLock lock(&conn->mutex);
          inflight = conn->inflight;
        }
        if (inflight > 0) {
          conn->stop_strikes = 0;
        } else if (++conn->stop_strikes >= 2) {
          CloseConn(conn);
        }
      }
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[static_cast<std::size_t>(i)].data.fd;
      const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        std::vector<std::shared_ptr<Conn>> completed;
        {
          MutexLock lock(&completions_mutex_);
          completed.swap(completions_);
        }
        // PumpConnection no-ops on closed connections.
        for (const std::shared_ptr<Conn>& conn : completed) {
          PumpConnection(conn);
        }
        continue;
      }
      if (fd == listen_fd_) {
        if (!draining) AcceptNewConnections();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // Closed earlier in this batch.
      std::shared_ptr<Conn> conn = it->second;
      if (mask & (EPOLLIN | EPOLLERR | EPOLLHUP)) HandleReadable(conn);
      // HandleWritable pumps, and the pump no-ops once closed.
      if (mask & EPOLLOUT) HandleWritable(conn);
    }
  }
}

void FrameServer::AcceptNewConnections() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Transient accept failures (ECONNABORTED, EMFILE, ...): back off
      // so a persistent one cannot spin the reactor, then let the
      // level-triggered listener event retry.
      NapBriefly();
      return;
    }
    connections_.Add();
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->armed_mask = EPOLLIN;
    conns_[fd] = conn;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  }
}

void FrameServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  {
    MutexLock lock(&conn->mutex);
    if (conn->closed) return;
  }
  if (!conn->reading) {
    // EPOLLHUP/ERR after we stopped reading: let the write path discover
    // whether the peer is really gone.
    PumpConnection(conn);
    return;
  }
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      read_bytes_.Add(static_cast<std::uint64_t>(n));
      conn->decoder.Append(std::string_view(buf, static_cast<std::size_t>(n)));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
      continue;  // Buffer was full; there may be more.
    }
    if (n == 0) {
      conn->peer_eof = true;
      conn->reading = false;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);  // Hard transport error.
    return;
  }

  // Reassemble and dispatch every complete frame.
  for (;;) {
    Result<std::optional<Frame>> frame = conn->decoder.Next();
    if (!frame.ok()) {
      // Transport-level garbage: no frame boundary left to resynchronize
      // on. Queue the typed error as the connection's final reply (it
      // still sits behind earlier pending replies, preserving order) and
      // close once everything has flushed.
      QueueProtocolError(conn, frame.status());
      conn->reading = false;
      conn->close_after_flush = true;
      break;
    }
    if (!frame->has_value()) break;
    Frame decoded = std::move(**frame);
    switch (decoded.type) {
      case FrameType::kRequest:
      case FrameType::kStats:
      case FrameType::kUpdate: {
        // Allocate the reply slot in arrival order, then hand the frame
        // to the dispatch pool; kStats and kUpdate go there too because
        // their handlers may touch disk (describing or mutating a graph
        // opens it), which must not stall the reactor.
        std::uint64_t seq;
        {
          MutexLock lock(&conn->mutex);
          seq = conn->next_seq++;
          conn->replies.emplace_back();
          ++conn->inflight;
        }
        reply_window_depth_.Add();
        in_flight_.Add();
        frames_dispatched_.Add();
        Job job{conn, seq, decoded.type, std::move(decoded.payload),
                std::chrono::steady_clock::now()};
        {
          MutexLock lock(&jobs_mutex_);
          jobs_.push_back(std::move(job));
        }
        dispatch_queue_depth_.Add();
        jobs_cv_.Signal();
        break;
      }
      default:  // A frame type the dispatcher never accepts.
        QueueProtocolError(
            conn, Status::InvalidArgument(
                      "server: unexpected frame type " +
                      std::to_string(static_cast<int>(decoded.type))));
        break;
    }
  }
  if (conn->peer_eof && conn->decoder.buffered() > 0 &&
      !conn->close_after_flush) {
    // The stream ended inside a frame: answer ReadFrame's typed
    // mid-frame-EOF error (same message, same error accounting) as
    // this connection's final reply.
    QueueProtocolError(conn,
                       Status::IOError("wire: connection closed mid-frame"));
    conn->close_after_flush = true;
  }
  PumpConnection(conn);
}

void FrameServer::QueueProtocolError(const std::shared_ptr<Conn>& conn,
                                     const Status& status) {
  protocol_errors_.Add();
  {
    MutexLock lock(&conn->mutex);
    Conn::Reply reply;
    reply.ready = true;
    reply.frame = ErrorReply(status);
    conn->replies.push_back(std::move(reply));
    ++conn->next_seq;
  }
  reply_window_depth_.Add();
}

void FrameServer::HandleWritable(const std::shared_ptr<Conn>& conn) {
  PumpConnection(conn);
}

void FrameServer::PumpConnection(const std::shared_ptr<Conn>& conn) {
  bool pending;
  std::vector<Conn::Reply> ready;
  {
    // Pop the ready reply prefix (and only the prefix: slot order IS
    // the pipelining guarantee) under the lock; the payload copies into
    // the write buffer happen after release, so a dispatch worker
    // completing another slot never stalls behind a multi-megabyte
    // append.
    MutexLock lock(&conn->mutex);
    if (conn->closed) return;
    while (!conn->replies.empty() && conn->replies.front().ready) {
      ready.push_back(std::move(conn->replies.front()));
      conn->replies.pop_front();
      ++conn->base_seq;
    }
    pending = !conn->replies.empty();
  }
  if (!ready.empty()) {
    reply_window_depth_.Sub(static_cast<std::int64_t>(ready.size()));
  }
  for (Conn::Reply& reply : ready) {
    if (reply.frame.payload->size() > kMaxFramePayload) {
      // Mirrors WriteFrame's oversized-payload failure, but keeps the
      // connection: the peer gets a typed error in the slot.
      AppendFrame(&conn->out, FrameType::kError,
                  EncodeError(Status::IOError(
                      "wire: frame payload of " +
                      std::to_string(reply.frame.payload->size()) +
                      " bytes exceeds the limit")));
    } else {
      AppendFrame(&conn->out, reply.frame.type, *reply.frame.payload);
    }
    conn->bytes_enqueued = conn->out.size() - conn->out_off +
                           conn->bytes_flushed;
    if (reply.traced) {
      Conn::PendingWrite pw;
      pw.end_offset = conn->bytes_enqueued;
      pw.trace = std::move(reply.trace);
      pw.arrival = reply.arrival;
      pw.ready_at = reply.ready_at;
      conn->pending_writes.push_back(std::move(pw));
    }
  }

  while (conn->out_off < conn->out.size()) {
    const ssize_t n = ::send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n >= 0) {
      conn->out_off += static_cast<std::size_t>(n);
      conn->bytes_flushed += static_cast<std::uint64_t>(n);
      written_bytes_.Add(static_cast<std::uint64_t>(n));
      conn->stop_strikes = 0;  // Progress.
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(conn);  // Peer is gone; replies are undeliverable.
    return;
  }
  if (conn->out_off == conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
  } else if (conn->out_off >= 64 * 1024) {
    conn->out.erase(0, conn->out_off);
    conn->out_off = 0;
  }

  // Finalize the spans whose bytes the socket has fully accepted: stamp
  // the write stage and fold the completed trace into the telemetry.
  if (!conn->pending_writes.empty()) {
    const auto now = std::chrono::steady_clock::now();
    while (!conn->pending_writes.empty() &&
           conn->pending_writes.front().end_offset <= conn->bytes_flushed) {
      Conn::PendingWrite& pw = conn->pending_writes.front();
      pw.trace.stage_us[static_cast<std::size_t>(telemetry::Stage::kWrite)] =
          ElapsedUs(pw.ready_at, now);
      pw.trace.total_us = ElapsedUs(pw.arrival, now);
      telemetry_.Record(pw.trace);
      conn->pending_writes.pop_front();
    }
  }

  const bool drained = conn->out.empty();
  if (drained && !pending &&
      (conn->peer_eof || conn->close_after_flush || stopping_.load())) {
    CloseConn(conn);
    return;
  }
  UpdateEpollMask(conn);
}

void FrameServer::UpdateEpollMask(const std::shared_ptr<Conn>& conn) {
  // Read backpressure: pause EPOLLIN while this connection's reply
  // backlog (unflushed bytes or open slots) is over budget; the pump
  // recomputes the mask as it drains, and level-triggered epoll re-fires
  // on whatever is still buffered in the socket once reading resumes.
  bool throttled = conn->out.size() - conn->out_off > kMaxConnOutBytes;
  if (!throttled) {
    MutexLock lock(&conn->mutex);
    throttled = conn->next_seq - conn->base_seq > kMaxConnOpenSlots;
  }
  epoll_event event{};
  event.data.fd = conn->fd;
  if (conn->reading && !throttled && !stopping_.load()) {
    event.events |= EPOLLIN;
  }
  if (!conn->out.empty()) event.events |= EPOLLOUT;
  // Skip the syscall when nothing changed -- the common small-reply case
  // pumps twice per request with the mask staying EPOLLIN throughout.
  if (event.events == conn->armed_mask) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
  conn->armed_mask = event.events;
}

void FrameServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  std::size_t open_slots;
  {
    MutexLock lock(&conn->mutex);
    if (conn->closed) return;
    conn->closed = true;
    open_slots = conn->replies.size();
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  if (open_slots > 0) {
    // Undelivered slots leave the window with the connection.
    reply_window_depth_.Sub(static_cast<std::int64_t>(open_slots));
  }
}

void FrameServer::CompleteJob(const std::shared_ptr<Conn>& conn,
                              std::uint64_t seq, ReplyFrame reply,
                              telemetry::RequestTrace trace, bool traced,
                              std::chrono::steady_clock::time_point arrival) {
  {
    MutexLock lock(&conn->mutex);
    if (!conn->closed) {
      // The slot still exists: slots leave the window only once ready.
      Conn::Reply& slot =
          conn->replies[static_cast<std::size_t>(seq - conn->base_seq)];
      slot.ready = true;
      slot.frame = std::move(reply);
      if (traced) {
        slot.trace = std::move(trace);
        slot.traced = true;
        slot.arrival = arrival;
        slot.ready_at = std::chrono::steady_clock::now();
      }
      --conn->inflight;
    }
  }
  in_flight_.Sub();
  {
    MutexLock lock(&completions_mutex_);
    completions_.push_back(conn);
  }
  WakeReactor();
}

void FrameServer::DispatchLoop() {
  const bool traced = telemetry_.enabled();
  for (;;) {
    Job job;
    {
      MutexLock lock(&jobs_mutex_);
      while (!jobs_stop_ && jobs_.empty()) jobs_cv_.Wait(&jobs_mutex_);
      if (jobs_.empty()) return;  // Stopping and fully drained.
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    dispatch_queue_depth_.Sub();
    telemetry::RequestTrace trace;
    if (traced) {
      trace.stage_us[static_cast<std::size_t>(telemetry::Stage::kQueueWait)] =
          ElapsedUs(job.arrival, std::chrono::steady_clock::now());
      // Frame kinds label their own spans; the handler labels a query
      // with its canonical name once decoded.
      if (job.type == FrameType::kStats) trace.query = "stats";
      if (job.type == FrameType::kUpdate) trace.query = "update";
    }
    ReplyFrame reply = Execute(job, &trace);
    CompleteJob(job.conn, job.seq, std::move(reply), std::move(trace), traced,
                job.arrival);
  }
}

}  // namespace ugs
