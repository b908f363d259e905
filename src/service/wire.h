#ifndef UGS_SERVICE_WIRE_H_
#define UGS_SERVICE_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include <vector>

#include "graph/uncertain_graph.h"
#include "query/query.h"
#include "util/status.h"

namespace ugs {

/// The wire protocol of the serving layer: a versioned binary
/// (de)serialization of the query layer's typed request/result pair, plus
/// a line-oriented JSON rendering of the same payloads for debuggability
/// (ugs_query --json and ugs_client --json emit it, the server's stats
/// verb replies with it).
///
/// Framing on a socket is length-prefixed:
///
///   u32 payload_length (little-endian) | u8 frame_type | payload bytes
///
/// and every *binary* payload (kRequest / kResult / kError / kUpdate /
/// kUpdateReply) starts with a
/// u8 format version (kWireVersion); the stats verb's payloads are raw
/// UTF-8 text (a graph id out, a JSON line back) and are unversioned.
/// Integers are little-endian fixed-width; doubles travel as their IEEE-754
/// bit patterns, so decode(encode(x)) is bit-identical to x -- the serving
/// determinism contract rests on this.
///
/// Decoding never aborts on hostile input: truncated buffers return
/// OutOfRange, unsupported versions FailedPrecondition, and anything
/// malformed (bad enum bytes, impossible lengths, trailing garbage)
/// InvalidArgument.

/// Version byte leading every payload. Bump when the payload layout
/// changes; decoders reject everything else. Version 2 added the
/// graph-version stamp to results and the mutation verbs
/// (kUpdate / kUpdateReply -- docs/dynamic-graphs.md).
inline constexpr std::uint8_t kWireVersion = 2;

/// Upper bound on a frame payload; larger length prefixes are rejected
/// before any allocation happens.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

/// kStats sub-verb selecting the Prometheus text exposition instead of
/// the JSON counters (empty payload) or a graph description (graph id
/// payload). Deliberately contains '/': graph ids with path separators
/// are rejected by the registry, so the verb can never collide with a
/// describable graph.
inline constexpr const char* kMetricsStatsVerb = "/metrics";

/// What a frame carries. The request/reply pairs are
/// kRequest -> kResult | kError, kStats -> kStatsReply | kError, and
/// kUpdate -> kUpdateReply | kError.
enum class FrameType : std::uint8_t {
  kRequest = 1,      ///< WireRequest payload (graph id + QueryRequest).
  kResult = 2,       ///< QueryResult payload.
  kError = 3,        ///< Status payload (code + message).
  kStats = 4,        ///< Admin verb: server/registry counters; empty payload.
  kStatsReply = 5,   ///< One-line JSON text payload.
  kUpdate = 6,       ///< WireUpdate payload (graph id + edge mutations).
  kUpdateReply = 7,  ///< WireUpdateReply payload (new version + count).
};

/// A query request addressed to one graph of a multi-graph server: `graph`
/// names the SessionRegistry entry that should answer `request`.
struct WireRequest {
  std::string graph;
  QueryRequest request;
};

/// A batch of edge mutations addressed to one graph. The whole batch is
/// one atomic version bump: all updates apply (in order) or none do.
/// Empty batches are rejected at decode time -- a no-op must not bump
/// the version.
struct WireUpdate {
  std::string graph;
  std::vector<EdgeUpdate> updates;
};

/// Acknowledgement of an applied update batch: the graph's new version
/// and how many updates the batch carried.
struct WireUpdateReply {
  std::uint64_t version = 0;
  std::uint32_t applied = 0;
};

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Binary payload (de)serialization. Encoders never fail; decoders return
/// the typed errors described above and otherwise reconstruct the value
/// bit-exactly.
std::string EncodeRequest(const WireRequest& request);
[[nodiscard]] Result<WireRequest> DecodeRequest(std::string_view payload);

std::string EncodeResult(const QueryResult& result);
[[nodiscard]] Result<QueryResult> DecodeResult(std::string_view payload);

std::string EncodeUpdate(const WireUpdate& update);
[[nodiscard]] Result<WireUpdate> DecodeUpdate(std::string_view payload);

std::string EncodeUpdateReply(const WireUpdateReply& reply);
[[nodiscard]] Result<WireUpdateReply> DecodeUpdateReply(
    std::string_view payload);

std::string EncodeError(const Status& status);
/// Decodes an error payload into `*decoded`, the (always non-OK) Status
/// it carries. The return value reports the decode itself: non-OK only
/// when the payload is malformed, in which case `*decoded` is untouched.
[[nodiscard]] Status DecodeError(std::string_view payload, Status* decoded);

/// One-line JSON rendering of a result payload (no trailing newline).
/// Doubles are printed round-trippably (%.17g), so two bit-identical
/// payloads render to byte-identical JSON -- the property the CI smoke
/// diff between ugs_client and ugs_query relies on. `include_timing`
/// controls the wall-time field: drop it to make renderings of repeated
/// runs diffable.
std::string ResultToJson(const QueryResult& result, bool include_timing = true);

/// `s` as a quoted, escaped JSON string literal (used by the hand-rolled
/// JSON emitters across the serving layer).
std::string JsonEscaped(const std::string& s);

/// Bit-exact equality of everything a QueryResult answers (query,
/// estimator, samples matrix, means, scalar, knn, paths) *except* the
/// wall-time field and the graph-version stamp -- the serving contract: a
/// response from ugs_serve must PayloadEquals the same request run through
/// GraphSession::Run locally. The version stamp is excluded so a mutated
/// session's answers compare against a fresh load of the equivalent edge
/// list (the version-equivalence oracle in tests/graph_update_test.cc).
bool PayloadEquals(const QueryResult& a, const QueryResult& b);

/// Appends one framed message (header + payload) to `out` -- the
/// buffer-building half of WriteFrame, used by the epoll backend's
/// per-connection write queues. The caller is responsible for the
/// kMaxFramePayload check (WriteFrame performs it).
void AppendFrame(std::string* out, FrameType type, std::string_view payload);

/// Writes one frame to a file descriptor (blocking, handles short
/// writes). IOError on write failure or oversized payload.
[[nodiscard]] Status WriteFrame(int fd, FrameType type,
                                std::string_view payload);

/// Incremental frame decoder for nonblocking transports (the epoll
/// backend): Append() bytes exactly as they arrive off the socket, then
/// pull complete frames out with Next() until it reports "need more".
/// The byte stream it accepts is identical to what ReadFrame consumes --
/// one decoder per connection replaces the blocking read loop.
class FrameDecoder {
 public:
  /// Buffers `data` (any split: partial headers and payloads welcome).
  void Append(std::string_view data);

  /// Extracts the next complete frame: a Frame once its last byte is
  /// buffered, std::nullopt when more bytes are needed, InvalidArgument
  /// on an oversized or unknown-type header. A header error is
  /// unrecoverable -- there is no frame boundary left to resynchronize
  /// on, so callers must drop the connection (the error sticks: every
  /// later Next() repeats it).
  [[nodiscard]] Result<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  std::size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
};

/// Reads one frame from a file descriptor (blocking, handles short
/// reads). std::nullopt on clean end-of-stream (peer closed before any
/// byte of a frame); IOError on mid-frame EOF or read failure;
/// InvalidArgument on an oversized or unknown-type frame header.
[[nodiscard]] Result<std::optional<Frame>> ReadFrame(int fd);

}  // namespace ugs

#endif  // UGS_SERVICE_WIRE_H_
