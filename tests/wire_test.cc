#include "service/wire.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace ugs {
namespace {

WireRequest FullRequest() {
  WireRequest wire;
  wire.graph = "twitter.txt";
  QueryRequest& q = wire.request;
  q.query = "shortest-path";
  q.pairs = {{0, 5}, {3, 7}, {4294967295u, 2}};
  q.sources = {1, 2, 9};
  q.k = 17;
  q.num_samples = 1234;
  q.seed = 0xdeadbeefcafef00dULL;
  q.estimator = Estimator::kStratified;
  q.pagerank.damping = 0.72;
  q.pagerank.max_iterations = 33;
  q.pagerank.tolerance = 1e-12;
  q.num_pivot_edges = 11;
  return wire;
}

void ExpectRequestsEqual(const WireRequest& a, const WireRequest& b) {
  EXPECT_EQ(a.graph, b.graph);
  EXPECT_EQ(a.request.query, b.request.query);
  ASSERT_EQ(a.request.pairs.size(), b.request.pairs.size());
  for (std::size_t i = 0; i < a.request.pairs.size(); ++i) {
    EXPECT_EQ(a.request.pairs[i].s, b.request.pairs[i].s);
    EXPECT_EQ(a.request.pairs[i].t, b.request.pairs[i].t);
  }
  EXPECT_EQ(a.request.sources, b.request.sources);
  EXPECT_EQ(a.request.k, b.request.k);
  EXPECT_EQ(a.request.num_samples, b.request.num_samples);
  EXPECT_EQ(a.request.seed, b.request.seed);
  EXPECT_EQ(a.request.estimator, b.request.estimator);
  EXPECT_EQ(a.request.pagerank.damping, b.request.pagerank.damping);
  EXPECT_EQ(a.request.pagerank.max_iterations,
            b.request.pagerank.max_iterations);
  EXPECT_EQ(a.request.pagerank.tolerance, b.request.pagerank.tolerance);
  EXPECT_EQ(a.request.num_pivot_edges, b.request.num_pivot_edges);
}

TEST(WireRequestTest, RoundTripsEveryField) {
  WireRequest wire = FullRequest();
  Result<WireRequest> decoded = DecodeRequest(EncodeRequest(wire));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectRequestsEqual(wire, *decoded);
}

TEST(WireRequestTest, RoundTripsEveryQueryKindAndEstimator) {
  // Every registry name under every estimator value (whether or not the
  // combination is executable -- the wire layer must carry it either way).
  for (const std::string& name : KnownQueryNames()) {
    for (Estimator estimator :
         {Estimator::kAuto, Estimator::kSampled, Estimator::kSkipSampler,
          Estimator::kStratified, Estimator::kExact,
          Estimator::kDeterministic}) {
      WireRequest wire;
      wire.graph = "g";
      wire.request.query = name;
      wire.request.estimator = estimator;
      wire.request.pairs = {{0, 1}};
      wire.request.sources = {0};
      Result<WireRequest> decoded = DecodeRequest(EncodeRequest(wire));
      ASSERT_TRUE(decoded.ok())
          << name << "/" << EstimatorName(estimator) << ": "
          << decoded.status().ToString();
      ExpectRequestsEqual(wire, *decoded);
    }
  }
}

TEST(WireRequestTest, RoundTripsEmptyRequest) {
  WireRequest wire;  // All defaults, no pairs/sources, empty names.
  Result<WireRequest> decoded = DecodeRequest(EncodeRequest(wire));
  ASSERT_TRUE(decoded.ok());
  ExpectRequestsEqual(wire, *decoded);
}

TEST(WireRequestTest, EveryTruncationFailsTyped) {
  const std::string payload = EncodeRequest(FullRequest());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Result<WireRequest> decoded =
        DecodeRequest(std::string_view(payload).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange)
        << "prefix " << len << ": " << decoded.status().ToString();
  }
}

TEST(WireRequestTest, WrongVersionFailsTyped) {
  std::string payload = EncodeRequest(FullRequest());
  payload[0] = static_cast<char>(kWireVersion + 1);
  Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WireRequestTest, TrailingGarbageFailsTyped) {
  std::string payload = EncodeRequest(FullRequest());
  payload.push_back('\0');
  Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireRequestTest, BadEstimatorByteFailsTyped) {
  WireRequest wire;
  wire.request.pairs.clear();
  wire.request.sources.clear();
  std::string payload = EncodeRequest(wire);
  // The estimator byte sits 25 bytes before the end: damping(8)
  // max_iterations(4) tolerance(8) pivots(4) follow it.
  payload[payload.size() - 25] = 99;
  Result<WireRequest> decoded = DecodeRequest(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

QueryResult SampledResult() {
  QueryResult result;
  result.query = "shortest-path";
  result.estimator = Estimator::kSkipSampler;
  result.samples.num_units = 2;
  result.samples.num_samples = 3;
  result.samples.values = {1.0, 2.5, 0.0, 3.25, 1e-300, -7.5};
  result.samples.valid = {1, 0, 1, 1, 0, 1};
  result.means = {1.75, 0.125};
  result.graph_version = 42;
  result.seconds = 0.25;
  return result;
}

void ExpectResultsBitEqual(const QueryResult& a, const QueryResult& b) {
  EXPECT_TRUE(PayloadEquals(a, b));
  // Full decode also restores the fields PayloadEquals exempts.
  EXPECT_EQ(a.graph_version, b.graph_version);
  EXPECT_EQ(a.seconds, b.seconds);
}

TEST(WireResultTest, RoundTripsSampledResultBitExactly) {
  QueryResult result = SampledResult();
  Result<QueryResult> decoded = DecodeResult(EncodeResult(result));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectResultsBitEqual(result, *decoded);
}

TEST(WireResultTest, PayloadEqualsComparesBitPatterns) {
  QueryResult result = SampledResult();
  result.has_scalar = true;
  result.scalar = 0.0;
  result.means[1] = 0.0;
  result.knn = {{{3, 0.0}}};
  result.paths = {{{0, 1}, 0.0}};
  // A result differing only in the sign of one zero is another result.
  QueryResult flipped = result;
  flipped.scalar = -0.0;
  EXPECT_FALSE(PayloadEquals(result, flipped));
  flipped = result;
  flipped.means[1] = -0.0;
  EXPECT_FALSE(PayloadEquals(result, flipped));
  flipped = result;
  flipped.samples.values[2] = -0.0;
  EXPECT_FALSE(PayloadEquals(result, flipped));
  flipped = result;
  flipped.knn[0][0].path_probability = -0.0;
  EXPECT_FALSE(PayloadEquals(result, flipped));
  flipped = result;
  flipped.paths[0].probability = -0.0;
  EXPECT_FALSE(PayloadEquals(result, flipped));
  // A copy of a result carrying a NaN is the same result.
  result.means[0] = std::numeric_limits<double>::quiet_NaN();
  result.samples.values[0] = std::numeric_limits<double>::quiet_NaN();
  const QueryResult copy = result;
  EXPECT_TRUE(PayloadEquals(result, copy));
}

TEST(WireResultTest, RoundTripsScalarResult) {
  QueryResult result;
  result.query = "connectivity";
  result.estimator = Estimator::kExact;
  result.has_scalar = true;
  result.scalar = 0.21899999999999997;  // An exact-oracle-style value.
  Result<QueryResult> decoded = DecodeResult(EncodeResult(result));
  ASSERT_TRUE(decoded.ok());
  ExpectResultsBitEqual(result, *decoded);
}

TEST(WireResultTest, RoundTripsKnnResult) {
  QueryResult result;
  result.query = "knn";
  result.estimator = Estimator::kDeterministic;
  result.knn = {{{3, 0.5}, {7, 0.25}}, {}, {{1, 0.125}}};
  Result<QueryResult> decoded = DecodeResult(EncodeResult(result));
  ASSERT_TRUE(decoded.ok());
  ExpectResultsBitEqual(result, *decoded);
}

TEST(WireResultTest, RoundTripsPathResult) {
  QueryResult result;
  result.query = "most-probable-path";
  result.estimator = Estimator::kDeterministic;
  result.paths.resize(2);
  result.paths[0].vertices = {0, 4, 9};
  result.paths[0].probability = 0.032;
  result.paths[1].vertices = {};  // Unreachable pair.
  result.paths[1].probability = 0.0;
  result.means = {0.032, 0.0};
  Result<QueryResult> decoded = DecodeResult(EncodeResult(result));
  ASSERT_TRUE(decoded.ok());
  ExpectResultsBitEqual(result, *decoded);
}

TEST(WireResultTest, EveryTruncationFailsTyped) {
  QueryResult full = SampledResult();
  full.knn = {{{3, 0.5}}};
  full.paths.resize(1);
  full.paths[0].vertices = {0, 1};
  full.paths[0].probability = 0.5;
  const std::string payload = EncodeResult(full);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Result<QueryResult> decoded =
        DecodeResult(std::string_view(payload).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange)
        << "prefix " << len;
  }
}

TEST(WireResultTest, ShapeMismatchFailsTyped) {
  QueryResult result = SampledResult();
  std::string payload = EncodeResult(result);
  // Corrupt num_units (offset right after the query string, estimator
  // byte, and u64 graph-version stamp): bump it so values no longer fit
  // the shape.
  const std::size_t units_offset = 1 + 4 + result.query.size() + 1 + 8;
  payload[units_offset] = 3;
  Result<QueryResult> decoded = DecodeResult(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireResultTest, WrongVersionFailsTyped) {
  std::string payload = EncodeResult(SampledResult());
  payload[0] = 0;
  Result<QueryResult> decoded = DecodeResult(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

WireUpdate FullUpdate() {
  WireUpdate update;
  update.graph = "g1";
  update.updates = {
      {EdgeUpdateOp::kInsert, 0, 5, 0.75},
      {EdgeUpdateOp::kDelete, 3, 7, 0.0},
      {EdgeUpdateOp::kReweight, 4294967295u, 2, 1e-9},
  };
  return update;
}

TEST(WireUpdateTest, RoundTripsEveryField) {
  WireUpdate update = FullUpdate();
  Result<WireUpdate> decoded = DecodeUpdate(EncodeUpdate(update));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->graph, update.graph);
  ASSERT_EQ(decoded->updates.size(), update.updates.size());
  for (std::size_t i = 0; i < update.updates.size(); ++i) {
    EXPECT_EQ(decoded->updates[i].op, update.updates[i].op);
    EXPECT_EQ(decoded->updates[i].u, update.updates[i].u);
    EXPECT_EQ(decoded->updates[i].v, update.updates[i].v);
    EXPECT_EQ(decoded->updates[i].p, update.updates[i].p);
  }
}

TEST(WireUpdateTest, EveryTruncationFailsTyped) {
  const std::string payload = EncodeUpdate(FullUpdate());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Result<WireUpdate> decoded =
        DecodeUpdate(std::string_view(payload).substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kOutOfRange)
        << "prefix " << len;
  }
}

TEST(WireUpdateTest, EmptyBatchFailsTyped) {
  WireUpdate update;
  update.graph = "g1";  // No updates: a no-op must not bump the version.
  Result<WireUpdate> decoded = DecodeUpdate(EncodeUpdate(update));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireUpdateTest, BadOpByteFailsTyped) {
  std::string payload = EncodeUpdate(FullUpdate());
  // The first update's op byte follows version(1) + graph(4+2) +
  // count(4).
  const std::size_t op_offset = 1 + 4 + 2 + 4;
  for (std::uint8_t bad : {0, 4, 255}) {
    payload[op_offset] = static_cast<char>(bad);
    Result<WireUpdate> decoded = DecodeUpdate(payload);
    ASSERT_FALSE(decoded.ok()) << "op byte " << int(bad) << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WireUpdateTest, TrailingGarbageFailsTyped) {
  std::string payload = EncodeUpdate(FullUpdate());
  payload.push_back('\0');
  Result<WireUpdate> decoded = DecodeUpdate(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireUpdateTest, WrongVersionFailsTyped) {
  std::string payload = EncodeUpdate(FullUpdate());
  payload[0] = 0;
  Result<WireUpdate> decoded = DecodeUpdate(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WireUpdateReplyTest, RoundTripsAndFailsTruncated) {
  WireUpdateReply reply;
  reply.version = 0x1122334455667788ULL;
  reply.applied = 9;
  const std::string payload = EncodeUpdateReply(reply);
  Result<WireUpdateReply> decoded = DecodeUpdateReply(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version, reply.version);
  EXPECT_EQ(decoded->applied, reply.applied);
  for (std::size_t len = 0; len < payload.size(); ++len) {
    Result<WireUpdateReply> bad =
        DecodeUpdateReply(std::string_view(payload).substr(0, len));
    ASSERT_FALSE(bad.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  }
}

TEST(WireErrorTest, RoundTripsStatus) {
  Status original = Status::NotFound("graph 'nope' is not resident");
  Status decoded;
  Status parse = DecodeError(EncodeError(original), &decoded);
  ASSERT_TRUE(parse.ok()) << parse.ToString();
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());
}

TEST(WireErrorTest, OkCodeIsMalformed) {
  Status decoded;
  Status parse = DecodeError(EncodeError(Status::OK()), &decoded);
  ASSERT_FALSE(parse.ok());
  EXPECT_EQ(parse.code(), StatusCode::kInvalidArgument);
}

TEST(WireJsonTest, ResultJsonIsDeterministicAndTimingIsOptional) {
  QueryResult a = SampledResult();
  QueryResult b = SampledResult();
  b.seconds = 99.0;  // Timing differs between a server and a local run...
  EXPECT_NE(ResultToJson(a), ResultToJson(b));
  // ...but the diffable form is byte-identical.
  EXPECT_EQ(ResultToJson(a, /*include_timing=*/false),
            ResultToJson(b, /*include_timing=*/false));
  EXPECT_EQ(ResultToJson(a, false).find("seconds"), std::string::npos);
}

TEST(WireJsonTest, EscapesHostileStrings) {
  QueryResult result = SampledResult();
  result.query = std::string("a\"b\\c\nd\x01", 8);
  std::string json = ResultToJson(result);
  EXPECT_NE(json.find("\"query\":\"a\\\"b\\\\c\\nd\\u0001\""),
            std::string::npos)
      << json;
}

/// One encoded frame as it would travel on the wire.
std::string FramedBytes(FrameType type, const std::string& payload) {
  std::string out;
  AppendFrame(&out, type, payload);
  return out;
}

TEST(FrameDecoderTest, DecodesOneFrameFedByteByByte) {
  const std::string payload = EncodeRequest(FullRequest());
  const std::string bytes = FramedBytes(FrameType::kRequest, payload);
  FrameDecoder decoder;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // Before the last byte, the decoder must keep asking for more.
    Result<std::optional<Frame>> frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << "at byte " << i;
    ASSERT_FALSE(frame->has_value()) << "at byte " << i;
    decoder.Append(std::string_view(&bytes[i], 1));
  }
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  EXPECT_EQ((*frame)->type, FrameType::kRequest);
  EXPECT_EQ((*frame)->payload, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, DecodesManyPipelinedFramesFromOneAppend) {
  // Pipelining on the wire is exactly this: several frames back-to-back
  // in one TCP stream, possibly landing in a single read.
  std::string stream;
  const std::string request = EncodeRequest(FullRequest());
  AppendFrame(&stream, FrameType::kRequest, request);
  AppendFrame(&stream, FrameType::kStats, "");
  AppendFrame(&stream, FrameType::kRequest, request);
  FrameDecoder decoder;
  decoder.Append(stream);
  const FrameType expected[] = {FrameType::kRequest, FrameType::kStats,
                                FrameType::kRequest};
  for (FrameType type : expected) {
    Result<std::optional<Frame>> frame = decoder.Next();
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame->has_value());
    EXPECT_EQ((*frame)->type, type);
  }
  Result<std::optional<Frame>> done = decoder.Next();
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done->has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameDecoderTest, SplitAcrossAppendsAtEveryBoundary) {
  const std::string payload = "0123456789";
  const std::string bytes = FramedBytes(FrameType::kStatsReply, payload);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    FrameDecoder decoder;
    decoder.Append(std::string_view(bytes).substr(0, split));
    decoder.Append(std::string_view(bytes).substr(split));
    Result<std::optional<Frame>> frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << "split " << split;
    ASSERT_TRUE(frame->has_value()) << "split " << split;
    EXPECT_EQ((*frame)->payload, payload) << "split " << split;
  }
}

TEST(FrameDecoderTest, OversizedHeaderFailsTypedAndSticks) {
  std::string bytes = "\xff\xff\xff\xff";  // Length 2^32-1: over the limit.
  bytes.push_back(static_cast<char>(FrameType::kRequest));
  FrameDecoder decoder;
  decoder.Append(bytes);
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  // The error is permanent: there is no boundary to resynchronize on.
  frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, UnknownTypeByteFailsTyped) {
  std::string bytes(4, '\0');  // Zero-length payload...
  bytes.push_back(static_cast<char>(99));  // ...but an unassigned type.
  FrameDecoder decoder;
  decoder.Append(bytes);
  Result<std::optional<Frame>> frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameDecoderTest, MatchesReadFrameStreamSemantics) {
  // The decoder accepts exactly the byte stream ReadFrame consumes: a
  // frame with an empty payload followed by one with a binary payload.
  std::string stream;
  AppendFrame(&stream, FrameType::kStats, "");
  const std::string error = EncodeError(Status::NotFound("nope"));
  AppendFrame(&stream, FrameType::kError, error);
  FrameDecoder decoder;
  decoder.Append(stream);
  Result<std::optional<Frame>> first = decoder.Next();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());
  EXPECT_EQ((*first)->type, FrameType::kStats);
  EXPECT_TRUE((*first)->payload.empty());
  Result<std::optional<Frame>> second = decoder.Next();
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->has_value());
  EXPECT_EQ((*second)->type, FrameType::kError);
  Status carried;
  ASSERT_TRUE(DecodeError((*second)->payload, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kNotFound);
  EXPECT_EQ(carried.message(), "nope");
}

TEST(WirePayloadEqualsTest, IgnoresTimingOnly) {
  QueryResult a = SampledResult();
  QueryResult b = a;
  b.seconds = 123.0;
  EXPECT_TRUE(PayloadEquals(a, b));
  b = a;
  b.means[0] = std::nextafter(b.means[0], 2.0);  // One ulp.
  EXPECT_FALSE(PayloadEquals(a, b));
  b = a;
  b.samples.values[3] = -b.samples.values[3];
  EXPECT_FALSE(PayloadEquals(a, b));
}

}  // namespace
}  // namespace ugs
