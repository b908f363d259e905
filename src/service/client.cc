#include "service/client.h"

#include <netdb.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <utility>

namespace ugs {

namespace {

/// One resolve-and-connect attempt. On failure returns -1 with
/// *out_errno holding the decisive errno (0 for resolution failures,
/// which are never retryable) and *out_error the typed message.
int TryConnect(const std::string& host, const std::string& service,
               int* out_errno, Status* out_error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* infos = nullptr;
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &infos);
  if (rc != 0) {
    *out_errno = 0;
    *out_error = Status::IOError("client: cannot resolve " + host + ":" +
                                 service + ": " + gai_strerror(rc));
    return -1;
  }
  int fd = -1;
  int last_errno = 0;
  for (addrinfo* info = infos; info != nullptr; info = info->ai_next) {
    fd = ::socket(info->ai_family, info->ai_socktype, info->ai_protocol);
    if (fd < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd, info->ai_addr, info->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(infos);
  if (fd < 0) {
    *out_errno = last_errno;
    *out_error = Status::IOError("client: cannot connect to " + host + ":" +
                                 service + ": " + std::strerror(last_errno));
    return -1;
  }
  return fd;
}

/// OK when `frame` is the `want` reply; otherwise the Status a kError
/// frame carries, or InvalidArgument for any other frame type.
Status CheckReply(const Frame& frame, FrameType want) {
  if (frame.type == want) return Status::OK();
  if (frame.type == FrameType::kError) {
    Status carried;
    UGS_RETURN_IF_ERROR(DecodeError(frame.payload, &carried));
    return carried;
  }
  return Status::InvalidArgument(
      "client: unexpected reply frame type " +
      std::to_string(static_cast<int>(frame.type)));
}

}  // namespace

Result<Client> Client::Connect(const std::string& host, int port,
                               const ConnectOptions& options) {
  const std::string service = std::to_string(port);
  int backoff_ms = options.initial_backoff_ms;
  for (int attempt = 0;; ++attempt) {
    int failed_errno = 0;
    Status failure = Status::OK();
    int fd = TryConnect(host, service, &failed_errno, &failure);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Client(fd);
    }
    // Only the "daemon not up yet" errnos are worth waiting out.
    const bool retryable =
        failed_errno == ECONNREFUSED || failed_errno == ETIMEDOUT;
    if (!retryable || attempt >= options.max_retries) return failure;
    timespec nap{backoff_ms / 1000, (backoff_ms % 1000) * 1000000L};
    nanosleep(&nap, nullptr);
    backoff_ms = std::min(backoff_ms * 2, options.max_backoff_ms);
  }
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::Send(FrameType type, std::string_view payload) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client: not connected");
  }
  return WriteFrame(fd_, type, payload);
}

Result<Frame> Client::Receive() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client: not connected");
  }
  Result<std::optional<Frame>> reply = ReadFrame(fd_);
  if (!reply.ok()) return reply.status();
  if (!reply->has_value()) {
    return Status::IOError("client: server closed before replying");
  }
  return std::move(**reply);
}

Result<Frame> Client::RoundTrip(FrameType type, std::string_view payload) {
  UGS_RETURN_IF_ERROR(Send(type, payload));
  return Receive();
}

Result<QueryResult> Client::Query(const std::string& graph,
                                  const QueryRequest& request) {
  Result<Frame> reply =
      RoundTrip(FrameType::kRequest, EncodeRequest({graph, request}));
  if (!reply.ok()) return reply.status();
  UGS_RETURN_IF_ERROR(CheckReply(*reply, FrameType::kResult));
  return DecodeResult(reply->payload);
}

std::vector<Result<QueryResult>> Client::QueryPipelined(
    const std::vector<WireRequest>& requests) {
  std::vector<Result<QueryResult>> results;
  results.reserve(requests.size());
  if (fd_ < 0) {
    results.assign(requests.size(),
                   Status::FailedPrecondition("client: not connected"));
    return results;
  }
  // Phase 1: all requests onto the wire, no reads in between.
  std::size_t sent = 0;
  Status transport = Status::OK();
  for (const WireRequest& request : requests) {
    transport = WriteFrame(fd_, FrameType::kRequest, EncodeRequest(request));
    if (!transport.ok()) break;
    ++sent;
  }
  // Phase 2: replies come back in request order.
  for (std::size_t i = 0; i < sent; ++i) {
    Result<std::optional<Frame>> reply = ReadFrame(fd_);
    if (!reply.ok()) {
      transport = reply.status();
      sent = i;  // Poison this slot and everything after it.
      break;
    }
    if (!reply->has_value()) {
      transport = Status::IOError("client: server closed before replying");
      sent = i;
      break;
    }
    Status checked = CheckReply(**reply, FrameType::kResult);
    results.push_back(checked.ok() ? DecodeResult((*reply)->payload)
                                   : Result<QueryResult>(std::move(checked)));
  }
  if (results.size() < requests.size() && transport.ok()) {
    // Defensive: every early exit above records its failure, but an
    // unfilled slot must never carry an OK status.
    transport = Status::IOError("client: pipelined send failed");
  }
  while (results.size() < requests.size()) results.push_back(transport);
  return results;
}

Result<std::string> Client::Stats(const std::string& graph) {
  Result<Frame> reply = RoundTrip(FrameType::kStats, graph);
  if (!reply.ok()) return reply.status();
  UGS_RETURN_IF_ERROR(CheckReply(*reply, FrameType::kStatsReply));
  return std::move(reply->payload);
}

Result<WireUpdateReply> Client::Update(const std::string& graph,
                                       const std::vector<EdgeUpdate>& updates) {
  WireUpdate update;
  update.graph = graph;
  update.updates = updates;
  Result<Frame> reply = RoundTrip(FrameType::kUpdate, EncodeUpdate(update));
  if (!reply.ok()) return reply.status();
  UGS_RETURN_IF_ERROR(CheckReply(*reply, FrameType::kUpdateReply));
  return DecodeUpdateReply(reply->payload);
}

}  // namespace ugs
