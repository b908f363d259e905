#include "service/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>

namespace ugs {
namespace {

/// Appends little-endian fixed-width fields to a growing payload.
class Writer {
 public:
  void U8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void U32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void U64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }

  void I32(std::int32_t v) { U32(static_cast<std::uint32_t>(v)); }

  void F64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }

  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Consumes the same fields; every read checks the remaining byte count
/// first, so hostile buffers produce typed errors instead of overreads.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }

  Status U8(std::uint8_t* v) {
    UGS_RETURN_IF_ERROR(Need(1));
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status U32(std::uint32_t* v) {
    UGS_RETURN_IF_ERROR(Need(4));
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return Status::OK();
  }

  Status U64(std::uint64_t* v) {
    UGS_RETURN_IF_ERROR(Need(8));
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return Status::OK();
  }

  Status I32(std::int32_t* v) {
    std::uint32_t raw;
    UGS_RETURN_IF_ERROR(U32(&raw));
    *v = static_cast<std::int32_t>(raw);
    return Status::OK();
  }

  Status F64(double* v) {
    std::uint64_t bits;
    UGS_RETURN_IF_ERROR(U64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  Status Str(std::string* s) {
    std::uint32_t size;
    UGS_RETURN_IF_ERROR(U32(&size));
    UGS_RETURN_IF_ERROR(Need(size));
    s->assign(data_.substr(pos_, size));
    pos_ += size;
    return Status::OK();
  }

  /// Reads an element count (u32) and verifies the remaining bytes can
  /// actually hold `count * elem_bytes`, so a corrupt length can never
  /// trigger a giant allocation.
  Status Count(std::size_t elem_bytes, std::size_t* count) {
    std::uint32_t raw;
    UGS_RETURN_IF_ERROR(U32(&raw));
    if (elem_bytes > 0 && raw > remaining() / elem_bytes) {
      return Status::OutOfRange(
          "wire: truncated payload (count " + std::to_string(raw) +
          " needs " + std::to_string(raw * elem_bytes) + " bytes, " +
          std::to_string(remaining()) + " remain)");
    }
    *count = raw;
    return Status::OK();
  }

  /// Like Count but 64-bit (the samples matrix can exceed 2^32 cells in
  /// principle; its dimensions travel as u64).
  Status Count64(std::size_t elem_bytes, std::uint64_t* count) {
    UGS_RETURN_IF_ERROR(U64(count));
    if (elem_bytes > 0 && *count > remaining() / elem_bytes) {
      return Status::OutOfRange(
          "wire: truncated payload (count " + std::to_string(*count) +
          " elements of " + std::to_string(elem_bytes) + " bytes, " +
          std::to_string(remaining()) + " bytes remain)");
    }
    return Status::OK();
  }

  /// Consumes and checks the leading version byte.
  Status Version() {
    std::uint8_t version;
    UGS_RETURN_IF_ERROR(U8(&version));
    if (version != kWireVersion) {
      return Status::FailedPrecondition(
          "wire: unsupported version " + std::to_string(version) +
          " (this build speaks version " + std::to_string(kWireVersion) +
          ")");
    }
    return Status::OK();
  }

  /// After a full parse the payload must be exactly consumed.
  Status Done() const {
    if (pos_ != data_.size()) {
      return Status::InvalidArgument(
          "wire: " + std::to_string(data_.size() - pos_) +
          " trailing bytes after payload");
    }
    return Status::OK();
  }

 private:
  Status Need(std::size_t bytes) const {
    if (remaining() < bytes) {
      return Status::OutOfRange(
          "wire: truncated payload (need " + std::to_string(bytes) +
          " bytes at offset " + std::to_string(pos_) + ", have " +
          std::to_string(remaining()) + ")");
    }
    return Status::OK();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

Status DecodeEstimator(std::uint8_t raw, Estimator* estimator) {
  if (raw > static_cast<std::uint8_t>(Estimator::kDeterministic)) {
    return Status::InvalidArgument("wire: invalid estimator byte " +
                                   std::to_string(raw));
  }
  *estimator = static_cast<Estimator>(raw);
  return Status::OK();
}

/// Round-trippable double rendering for the JSON form.
void AppendDouble(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf);
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->append(JsonEscaped(s));
}

void AppendDoubleArray(std::string* out, const std::vector<double>& values) {
  out->push_back('[');
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendDouble(out, values[i]);
  }
  out->push_back(']');
}

/// Reads exactly `size` bytes; false with *eof = true when the stream
/// ends cleanly before the first byte.
Status ReadExact(int fd, char* data, std::size_t size, bool allow_eof,
                 bool* eof) {
  std::size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire: read failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) {
      if (allow_eof && done == 0) {
        *eof = true;
        return Status::OK();
      }
      return Status::IOError("wire: connection closed mid-frame");
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Validates the fixed 5-byte frame header shared by ReadFrame and
/// FrameDecoder: little-endian payload length, then the type byte.
Status ParseFrameHeader(const char* header, std::uint32_t* size,
                        FrameType* type) {
  *size = 0;
  for (int i = 0; i < 4; ++i) {
    *size |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[i]))
             << (8 * i);
  }
  if (*size > kMaxFramePayload) {
    return Status::InvalidArgument("wire: frame of " + std::to_string(*size) +
                                   " bytes exceeds the limit");
  }
  const std::uint8_t raw_type = static_cast<std::uint8_t>(header[4]);
  if (raw_type < static_cast<std::uint8_t>(FrameType::kRequest) ||
      raw_type > static_cast<std::uint8_t>(FrameType::kUpdateReply)) {
    return Status::InvalidArgument("wire: unknown frame type " +
                                   std::to_string(raw_type));
  }
  *type = static_cast<FrameType>(raw_type);
  return Status::OK();
}

Status WriteAll(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    // Frames travel on sockets; MSG_NOSIGNAL turns a peer hang-up into
    // an EPIPE error instead of a process-killing SIGPIPE.
    ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("wire: write failed: ") +
                             std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

std::string JsonEscaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string EncodeRequest(const WireRequest& request) {
  const QueryRequest& q = request.request;
  Writer w;
  w.U8(kWireVersion);
  w.Str(request.graph);
  w.Str(q.query);
  w.U32(static_cast<std::uint32_t>(q.pairs.size()));
  for (const VertexPair& pair : q.pairs) {
    w.U32(pair.s);
    w.U32(pair.t);
  }
  w.U32(static_cast<std::uint32_t>(q.sources.size()));
  for (VertexId source : q.sources) w.U32(source);
  w.U64(q.k);
  w.I32(q.num_samples);
  w.U64(q.seed);
  w.U8(static_cast<std::uint8_t>(q.estimator));
  w.F64(q.pagerank.damping);
  w.I32(q.pagerank.max_iterations);
  w.F64(q.pagerank.tolerance);
  w.I32(q.num_pivot_edges);
  return w.Take();
}

Result<WireRequest> DecodeRequest(std::string_view payload) {
  Reader r(payload);
  WireRequest request;
  QueryRequest& q = request.request;
  UGS_RETURN_IF_ERROR(r.Version());
  UGS_RETURN_IF_ERROR(r.Str(&request.graph));
  UGS_RETURN_IF_ERROR(r.Str(&q.query));
  std::size_t pair_count;
  UGS_RETURN_IF_ERROR(r.Count(8, &pair_count));
  q.pairs.resize(pair_count);
  for (VertexPair& pair : q.pairs) {
    UGS_RETURN_IF_ERROR(r.U32(&pair.s));
    UGS_RETURN_IF_ERROR(r.U32(&pair.t));
  }
  std::size_t source_count;
  UGS_RETURN_IF_ERROR(r.Count(4, &source_count));
  q.sources.resize(source_count);
  for (VertexId& source : q.sources) UGS_RETURN_IF_ERROR(r.U32(&source));
  std::uint64_t k;
  UGS_RETURN_IF_ERROR(r.U64(&k));
  q.k = static_cast<std::size_t>(k);
  UGS_RETURN_IF_ERROR(r.I32(&q.num_samples));
  UGS_RETURN_IF_ERROR(r.U64(&q.seed));
  std::uint8_t estimator;
  UGS_RETURN_IF_ERROR(r.U8(&estimator));
  UGS_RETURN_IF_ERROR(DecodeEstimator(estimator, &q.estimator));
  UGS_RETURN_IF_ERROR(r.F64(&q.pagerank.damping));
  UGS_RETURN_IF_ERROR(r.I32(&q.pagerank.max_iterations));
  UGS_RETURN_IF_ERROR(r.F64(&q.pagerank.tolerance));
  UGS_RETURN_IF_ERROR(r.I32(&q.num_pivot_edges));
  UGS_RETURN_IF_ERROR(r.Done());
  return request;
}

std::string EncodeResult(const QueryResult& result) {
  Writer w;
  w.U8(kWireVersion);
  w.Str(result.query);
  w.U8(static_cast<std::uint8_t>(result.estimator));
  w.U64(result.graph_version);
  w.U64(result.samples.num_units);
  w.U64(result.samples.num_samples);
  w.U64(result.samples.values.size());
  for (double v : result.samples.values) w.F64(v);
  w.U64(result.samples.valid.size());
  for (char v : result.samples.valid) w.U8(static_cast<std::uint8_t>(v));
  w.U32(static_cast<std::uint32_t>(result.means.size()));
  for (double m : result.means) w.F64(m);
  w.U8(result.has_scalar ? 1 : 0);
  w.F64(result.scalar);
  w.U32(static_cast<std::uint32_t>(result.knn.size()));
  for (const std::vector<KnnResult>& neighbors : result.knn) {
    w.U32(static_cast<std::uint32_t>(neighbors.size()));
    for (const KnnResult& neighbor : neighbors) {
      w.U32(neighbor.vertex);
      w.F64(neighbor.path_probability);
    }
  }
  w.U32(static_cast<std::uint32_t>(result.paths.size()));
  for (const MostProbablePath& path : result.paths) {
    w.U32(static_cast<std::uint32_t>(path.vertices.size()));
    for (VertexId v : path.vertices) w.U32(v);
    w.F64(path.probability);
  }
  w.F64(result.seconds);
  return w.Take();
}

Result<QueryResult> DecodeResult(std::string_view payload) {
  Reader r(payload);
  QueryResult result;
  UGS_RETURN_IF_ERROR(r.Version());
  UGS_RETURN_IF_ERROR(r.Str(&result.query));
  std::uint8_t estimator;
  UGS_RETURN_IF_ERROR(r.U8(&estimator));
  UGS_RETURN_IF_ERROR(DecodeEstimator(estimator, &result.estimator));
  UGS_RETURN_IF_ERROR(r.U64(&result.graph_version));
  UGS_RETURN_IF_ERROR(r.U64(&result.samples.num_units));
  UGS_RETURN_IF_ERROR(r.U64(&result.samples.num_samples));
  const std::uint64_t units = result.samples.num_units;
  const std::uint64_t samples = result.samples.num_samples;
  if (units != 0 &&
      samples > std::numeric_limits<std::uint64_t>::max() / units) {
    return Status::InvalidArgument("wire: samples matrix shape overflows");
  }
  const std::uint64_t cells = units * samples;
  std::uint64_t value_count;
  UGS_RETURN_IF_ERROR(r.Count64(8, &value_count));
  if (value_count != 0 && value_count != cells) {
    return Status::InvalidArgument(
        "wire: samples matrix carries " + std::to_string(value_count) +
        " values for a " + std::to_string(units) + " x " +
        std::to_string(samples) + " shape");
  }
  result.samples.values.resize(value_count);
  for (double& v : result.samples.values) UGS_RETURN_IF_ERROR(r.F64(&v));
  std::uint64_t valid_count;
  UGS_RETURN_IF_ERROR(r.Count64(1, &valid_count));
  if (valid_count != 0 && valid_count != cells) {
    return Status::InvalidArgument(
        "wire: validity flags carry " + std::to_string(valid_count) +
        " entries for " + std::to_string(cells) + " cells");
  }
  result.samples.valid.resize(valid_count);
  for (char& v : result.samples.valid) {
    std::uint8_t raw;
    UGS_RETURN_IF_ERROR(r.U8(&raw));
    v = static_cast<char>(raw);
  }
  std::size_t mean_count;
  UGS_RETURN_IF_ERROR(r.Count(8, &mean_count));
  result.means.resize(mean_count);
  for (double& m : result.means) UGS_RETURN_IF_ERROR(r.F64(&m));
  std::uint8_t has_scalar;
  UGS_RETURN_IF_ERROR(r.U8(&has_scalar));
  if (has_scalar > 1) {
    return Status::InvalidArgument("wire: invalid has_scalar byte " +
                                   std::to_string(has_scalar));
  }
  result.has_scalar = has_scalar != 0;
  UGS_RETURN_IF_ERROR(r.F64(&result.scalar));
  std::size_t knn_count;
  UGS_RETURN_IF_ERROR(r.Count(4, &knn_count));
  result.knn.resize(knn_count);
  for (std::vector<KnnResult>& neighbors : result.knn) {
    std::size_t neighbor_count;
    UGS_RETURN_IF_ERROR(r.Count(12, &neighbor_count));
    neighbors.resize(neighbor_count);
    for (KnnResult& neighbor : neighbors) {
      UGS_RETURN_IF_ERROR(r.U32(&neighbor.vertex));
      UGS_RETURN_IF_ERROR(r.F64(&neighbor.path_probability));
    }
  }
  std::size_t path_count;
  UGS_RETURN_IF_ERROR(r.Count(12, &path_count));
  result.paths.resize(path_count);
  for (MostProbablePath& path : result.paths) {
    std::size_t vertex_count;
    UGS_RETURN_IF_ERROR(r.Count(4, &vertex_count));
    path.vertices.resize(vertex_count);
    for (VertexId& v : path.vertices) UGS_RETURN_IF_ERROR(r.U32(&v));
    UGS_RETURN_IF_ERROR(r.F64(&path.probability));
  }
  UGS_RETURN_IF_ERROR(r.F64(&result.seconds));
  UGS_RETURN_IF_ERROR(r.Done());
  return result;
}

std::string EncodeError(const Status& status) {
  Writer w;
  w.U8(kWireVersion);
  w.U8(static_cast<std::uint8_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeError(std::string_view payload, Status* decoded) {
  Reader r(payload);
  UGS_RETURN_IF_ERROR(r.Version());
  std::uint8_t code;
  UGS_RETURN_IF_ERROR(r.U8(&code));
  if (code == static_cast<std::uint8_t>(StatusCode::kOk) ||
      code > static_cast<std::uint8_t>(StatusCode::kInternal)) {
    return Status::InvalidArgument("wire: invalid error code byte " +
                                   std::to_string(code));
  }
  std::string message;
  UGS_RETURN_IF_ERROR(r.Str(&message));
  UGS_RETURN_IF_ERROR(r.Done());
  *decoded = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

std::string EncodeUpdate(const WireUpdate& update) {
  Writer w;
  w.U8(kWireVersion);
  w.Str(update.graph);
  w.U32(static_cast<std::uint32_t>(update.updates.size()));
  for (const EdgeUpdate& u : update.updates) {
    w.U8(static_cast<std::uint8_t>(u.op));
    w.U32(u.u);
    w.U32(u.v);
    w.F64(u.p);
  }
  return w.Take();
}

Result<WireUpdate> DecodeUpdate(std::string_view payload) {
  Reader r(payload);
  WireUpdate update;
  UGS_RETURN_IF_ERROR(r.Version());
  UGS_RETURN_IF_ERROR(r.Str(&update.graph));
  std::size_t count;
  UGS_RETURN_IF_ERROR(r.Count(17, &count));  // op u8 + 2x u32 + p f64.
  if (count == 0) {
    return Status::InvalidArgument(
        "wire: empty update batch (a no-op must not bump the version)");
  }
  update.updates.resize(count);
  for (EdgeUpdate& u : update.updates) {
    std::uint8_t op;
    UGS_RETURN_IF_ERROR(r.U8(&op));
    if (op < static_cast<std::uint8_t>(EdgeUpdateOp::kInsert) ||
        op > static_cast<std::uint8_t>(EdgeUpdateOp::kReweight)) {
      return Status::InvalidArgument("wire: invalid edge-update op byte " +
                                     std::to_string(op));
    }
    u.op = static_cast<EdgeUpdateOp>(op);
    UGS_RETURN_IF_ERROR(r.U32(&u.u));
    UGS_RETURN_IF_ERROR(r.U32(&u.v));
    UGS_RETURN_IF_ERROR(r.F64(&u.p));
  }
  UGS_RETURN_IF_ERROR(r.Done());
  return update;
}

std::string EncodeUpdateReply(const WireUpdateReply& reply) {
  Writer w;
  w.U8(kWireVersion);
  w.U64(reply.version);
  w.U32(reply.applied);
  return w.Take();
}

Result<WireUpdateReply> DecodeUpdateReply(std::string_view payload) {
  Reader r(payload);
  WireUpdateReply reply;
  UGS_RETURN_IF_ERROR(r.Version());
  UGS_RETURN_IF_ERROR(r.U64(&reply.version));
  UGS_RETURN_IF_ERROR(r.U32(&reply.applied));
  UGS_RETURN_IF_ERROR(r.Done());
  return reply;
}

std::string ResultToJson(const QueryResult& result, bool include_timing) {
  std::string out = "{\"query\":";
  AppendJsonString(&out, result.query);
  out += ",\"estimator\":";
  AppendJsonString(&out, EstimatorName(result.estimator));
  // The matrix itself is summarized by shape (it can be millions of
  // cells); the per-unit means carry the point estimates.
  out += ",\"samples\":{\"units\":" +
         std::to_string(result.samples.num_units) +
         ",\"count\":" + std::to_string(result.samples.num_samples) + "}";
  out += ",\"means\":";
  AppendDoubleArray(&out, result.means);
  if (result.has_scalar) {
    out += ",\"scalar\":";
    AppendDouble(&out, result.scalar);
  }
  if (!result.knn.empty()) {
    out += ",\"knn\":[";
    for (std::size_t i = 0; i < result.knn.size(); ++i) {
      if (i > 0) out.push_back(',');
      out.push_back('[');
      for (std::size_t j = 0; j < result.knn[i].size(); ++j) {
        if (j > 0) out.push_back(',');
        out += "{\"vertex\":" + std::to_string(result.knn[i][j].vertex) +
               ",\"p\":";
        AppendDouble(&out, result.knn[i][j].path_probability);
        out.push_back('}');
      }
      out.push_back(']');
    }
    out.push_back(']');
  }
  if (!result.paths.empty()) {
    out += ",\"paths\":[";
    for (std::size_t i = 0; i < result.paths.size(); ++i) {
      if (i > 0) out.push_back(',');
      out += "{\"vertices\":[";
      for (std::size_t j = 0; j < result.paths[i].vertices.size(); ++j) {
        if (j > 0) out.push_back(',');
        out += std::to_string(result.paths[i].vertices[j]);
      }
      out += "],\"p\":";
      AppendDouble(&out, result.paths[i].probability);
      out.push_back('}');
    }
    out.push_back(']');
  }
  if (include_timing) {
    out += ",\"seconds\":";
    AppendDouble(&out, result.seconds);
  }
  out.push_back('}');
  return out;
}

bool PayloadEquals(const QueryResult& a, const QueryResult& b) {
  auto knn_equal = [](const KnnResult& x, const KnnResult& y) {
    return x.vertex == y.vertex &&
           SameBits(x.path_probability, y.path_probability);
  };
  if (a.knn.size() != b.knn.size() || a.paths.size() != b.paths.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.knn.size(); ++i) {
    if (!std::equal(a.knn[i].begin(), a.knn[i].end(), b.knn[i].begin(),
                    b.knn[i].end(), knn_equal)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    if (a.paths[i].vertices != b.paths[i].vertices ||
        !SameBits(a.paths[i].probability, b.paths[i].probability)) {
      return false;
    }
  }
  return a.query == b.query && a.estimator == b.estimator &&
         a.samples == b.samples && SameBits(a.means, b.means) &&
         a.has_scalar == b.has_scalar && SameBits(a.scalar, b.scalar);
}

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  // One buffer, one send: a header-only segment followed by the payload
  // would trip the Nagle / delayed-ACK interaction and stall every
  // request-reply round trip by tens of milliseconds.
  out->reserve(out->size() + 5 + payload.size());
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((size >> (8 * i)) & 0xff));
  }
  out->push_back(static_cast<char>(type));
  out->append(payload);
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::IOError("wire: frame payload of " +
                           std::to_string(payload.size()) +
                           " bytes exceeds the limit");
  }
  std::string frame;
  AppendFrame(&frame, type, payload);
  return WriteAll(fd, frame.data(), frame.size());
}

Result<std::optional<Frame>> ReadFrame(int fd) {
  char header[5];
  bool eof = false;
  UGS_RETURN_IF_ERROR(ReadExact(fd, header, sizeof(header),
                                /*allow_eof=*/true, &eof));
  if (eof) return std::optional<Frame>();
  std::uint32_t size;
  Frame frame;
  UGS_RETURN_IF_ERROR(ParseFrameHeader(header, &size, &frame.type));
  frame.payload.resize(size);
  if (size > 0) {
    UGS_RETURN_IF_ERROR(ReadExact(fd, frame.payload.data(), size,
                                  /*allow_eof=*/false, &eof));
  }
  return std::optional<Frame>(std::move(frame));
}

void FrameDecoder::Append(std::string_view data) {
  // Compact lazily: dropping the consumed prefix on every frame would be
  // quadratic on a buffer holding many pipelined frames.
  if (consumed_ > 0 &&
      (consumed_ == buffer_.size() || consumed_ >= 4096)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data);
}

Result<std::optional<Frame>> FrameDecoder::Next() {
  if (buffered() < 5) return std::optional<Frame>();
  std::uint32_t size;
  Frame frame;
  // A bad header is permanent: consumed_ is left pointing at it, so the
  // same error returns on every later call.
  UGS_RETURN_IF_ERROR(
      ParseFrameHeader(buffer_.data() + consumed_, &size, &frame.type));
  if (buffered() < 5 + static_cast<std::size_t>(size)) {
    return std::optional<Frame>();
  }
  frame.payload.assign(buffer_, consumed_ + 5, size);
  consumed_ += 5 + static_cast<std::size_t>(size);
  if (consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  }
  return std::optional<Frame>(std::move(frame));
}

}  // namespace ugs
