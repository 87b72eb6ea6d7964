#include "net/frame.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "net/transport.h"

namespace kbt::net {
namespace {

// ---------------------------------------------------------------------------
// Roundtrips

TEST(NetFrameTest, FrameRoundtrip) {
  StatusOr<std::string> frame =
      EncodeFrame(FrameType::kReadRequest, "hello payload", 42);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->size(), kHeaderSize + 13);
  auto header = DecodeHeader(std::string_view(*frame).substr(0, kHeaderSize));
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, FrameType::kReadRequest);
  EXPECT_EQ(header->payload_len, 13u);
  EXPECT_EQ(header->seq, 42u);
  EXPECT_TRUE(VerifyPayload(std::string_view(*frame).substr(0, kHeaderSize),
                            std::string_view(*frame).substr(kHeaderSize))
                  .ok());
}

TEST(NetFrameTest, EncodeRejectsOversizedPayload) {
  std::string big(kMaxPayload + 1, 'x');
  EXPECT_FALSE(EncodeFrame(FrameType::kPing, big).ok());
}

TEST(NetFrameTest, ReadRequestRoundtrip) {
  WireReadRequest r;
  r.antecedents = {"P(a)", "Q(a, b) | P(b)"};
  r.consequent = "P(b)";
  r.modality = 1;
  r.deadline_ms = 1234;
  auto decoded = DecodeReadRequest(EncodeReadRequest(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->antecedents, r.antecedents);
  EXPECT_EQ(decoded->consequent, r.consequent);
  EXPECT_EQ(decoded->modality, r.modality);
  EXPECT_EQ(decoded->deadline_ms, r.deadline_ms);
}

TEST(NetFrameTest, ErrorRoundtripPreservesStatus) {
  Status original = Status::DeadlineExceeded("query cancelled");
  WireError e = ErrorFromStatus(original, 75);
  auto decoded = DecodeError(EncodeError(e));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->retry_after_ms, 75u);
  Status back = StatusFromError(*decoded);
  EXPECT_EQ(back.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(back.message(), "query cancelled");
}

TEST(NetFrameTest, ErrorRoundtripCarriesRedirectHint) {
  WireError e = ErrorFromStatus(Status::ReadOnly("replica is read-only"));
  e.redirect = "10.0.0.7:4100";
  auto decoded = DecodeError(EncodeError(e));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->redirect, "10.0.0.7:4100");
  EXPECT_EQ(StatusFromError(*decoded).code(), StatusCode::kReadOnly);
}

TEST(NetFrameTest, ReplSubscribeRoundtrip) {
  WireReplSubscribe r;
  r.follower_id = "f1";
  r.epoch = 3;
  r.start_lsn = 77;
  r.has_state = 1;
  auto decoded = DecodeReplSubscribe(EncodeReplSubscribe(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->follower_id, "f1");
  EXPECT_EQ(decoded->epoch, 3u);
  EXPECT_EQ(decoded->start_lsn, 77u);
  EXPECT_EQ(decoded->has_state, 1u);
}

TEST(NetFrameTest, ReplSubscribeReplyRoundtrip) {
  WireReplSubscribeReply r;
  r.primary_id = "p0";
  r.epoch = 4;
  r.primary_lsn = 120;
  r.horizon_lsn = 100;
  r.need_snapshot = 1;
  r.snapshot_lsn = 110;
  r.epoch_history = {{1, 0}, {2, 50}, {4, 110}};
  auto decoded = DecodeReplSubscribeReply(EncodeReplSubscribeReply(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->primary_id, "p0");
  EXPECT_EQ(decoded->epoch, 4u);
  EXPECT_EQ(decoded->primary_lsn, 120u);
  EXPECT_EQ(decoded->horizon_lsn, 100u);
  EXPECT_EQ(decoded->need_snapshot, 1u);
  EXPECT_EQ(decoded->snapshot_lsn, 110u);
  EXPECT_EQ(decoded->epoch_history, r.epoch_history);
}

TEST(NetFrameTest, ReplFetchAndRecordsRoundtrip) {
  WireReplFetch f;
  f.follower_id = "f2";
  f.epoch = 2;
  f.after_lsn = 41;
  f.wait_ms = 250;
  f.max_records = 16;
  f.max_bytes = 65536;
  auto fd = DecodeReplFetch(EncodeReplFetch(f));
  ASSERT_TRUE(fd.ok());
  EXPECT_EQ(fd->after_lsn, 41u);
  EXPECT_EQ(fd->wait_ms, 250u);

  WireReplRecords r;
  r.epoch = 2;
  r.start_lsn = 42;
  r.primary_lsn = 44;
  r.records = {{1, "tau{...}"}, {2, std::string("\x01\x02", 2)}, {3, ""}};
  auto rd = DecodeReplRecords(EncodeReplRecords(r));
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(rd->epoch, 2u);
  EXPECT_EQ(rd->start_lsn, 42u);
  EXPECT_EQ(rd->primary_lsn, 44u);
  EXPECT_EQ(rd->records, r.records);
}

TEST(NetFrameTest, ReplRecordsRejectsBadKindAndOverCapBatch) {
  WireReplRecords r;
  r.records = {{9, "bogus kind"}};
  EXPECT_FALSE(DecodeReplRecords(EncodeReplRecords(r)).ok());
  r.records.clear();
  for (size_t i = 0; i <= kMaxReplBatch; ++i) r.records.emplace_back(1, "x");
  EXPECT_FALSE(DecodeReplRecords(EncodeReplRecords(r)).ok());
}

TEST(NetFrameTest, ReplCkptChunkRoundtripAndOverrunRejected) {
  WireReplCkptChunk c;
  c.lsn = 10;
  c.offset = 4096;
  c.total_size = 9000;
  c.bytes = std::string(1000, 'z');
  auto decoded = DecodeReplCkptChunk(EncodeReplCkptChunk(c));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->total_size, 9000u);
  EXPECT_EQ(decoded->bytes.size(), 1000u);
  // A chunk claiming bytes past its own total size is corrupt.
  c.offset = 8500;
  EXPECT_FALSE(DecodeReplCkptChunk(EncodeReplCkptChunk(c)).ok());
}

TEST(NetFrameTest, StatsReplyRoundtrip) {
  WireStatsReply r;
  r.counters = {{"reads", 7}, {"commits", 3}};
  auto decoded = DecodeStatsReply(EncodeStatsReply(r));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->counters, r.counters);
}

// ---------------------------------------------------------------------------
// Malformed-header rejection

std::string ValidFrame(std::string_view payload = "abc",
                       FrameType type = FrameType::kApplyRequest) {
  return *EncodeFrame(type, payload, 7);
}

TEST(NetFrameTest, HeaderRejectsBadMagic) {
  std::string f = ValidFrame();
  f[0] ^= 0x1;
  EXPECT_FALSE(DecodeHeader(std::string_view(f).substr(0, kHeaderSize)).ok());
}

TEST(NetFrameTest, HeaderRejectsBadVersion) {
  std::string f = ValidFrame();
  f[4] = 99;
  EXPECT_FALSE(DecodeHeader(std::string_view(f).substr(0, kHeaderSize)).ok());
}

TEST(NetFrameTest, HeaderRejectsUnknownType) {
  std::string f = ValidFrame();
  f[5] = 0;
  EXPECT_FALSE(DecodeHeader(std::string_view(f).substr(0, kHeaderSize)).ok());
  f[5] = 120;
  EXPECT_FALSE(DecodeHeader(std::string_view(f).substr(0, kHeaderSize)).ok());
}

TEST(NetFrameTest, HeaderRejectsHugeLength) {
  // A corrupt length field must be rejected *before* any allocation.
  std::string f = ValidFrame();
  f[8] = static_cast<char>(0xff);
  f[9] = static_cast<char>(0xff);
  f[10] = static_cast<char>(0xff);
  f[11] = static_cast<char>(0x7f);
  EXPECT_FALSE(DecodeHeader(std::string_view(f).substr(0, kHeaderSize)).ok());
}

TEST(NetFrameTest, CrcCatchesPayloadCorruption) {
  std::string f = ValidFrame("some payload bytes");
  f[kHeaderSize + 3] ^= 0x10;
  EXPECT_FALSE(VerifyPayload(std::string_view(f).substr(0, kHeaderSize),
                             std::string_view(f).substr(kHeaderSize))
                   .ok());
}

// ---------------------------------------------------------------------------
// ReadFrame-level fuzz over an in-memory pipe: the decoder must be total.
// Every malformed stream yields a typed error (or, for a surviving type-byte
// flip, a valid frame) — never a crash, never an oversized allocation.

void FeedAndRead(const std::string& bytes, Status* out_status,
                 uint8_t* out_type, std::string* out_payload) {
  auto [client, server] = MakePipePair();
  ASSERT_TRUE(client->WriteAll(bytes.data(), bytes.size()).ok());
  client->Shutdown();  // EOF after the bytes: a stuck reader would hang here.
  uint16_t seq = 0;
  *out_status = ReadFrame(*server, out_type, out_payload, &seq);
}

TEST(NetFrameFuzzTest, TruncationsAtEveryLengthAreTypedErrors) {
  std::string f = ValidFrame("truncate me at every offset");
  for (size_t len = 0; len < f.size(); ++len) {
    Status s;
    uint8_t type = 0;
    std::string payload;
    FeedAndRead(f.substr(0, len), &s, &type, &payload);
    ASSERT_FALSE(s.ok()) << "truncation at " << len << " decoded";
    // A cut before the first byte is a clean EOF; anything else is either a
    // torn frame (kDataLoss) — never a success.
    ASSERT_TRUE(s.code() == StatusCode::kUnavailable ||
                s.code() == StatusCode::kDataLoss)
        << "truncation at " << len << ": " << s.ToString();
    if (len > 0) {
      EXPECT_EQ(s.code(), StatusCode::kDataLoss) << "at " << len;
    }
  }
}

TEST(NetFrameFuzzTest, SingleByteFlipsNeverYieldTheOriginalFrame) {
  const std::string payload = "P(a) & Q(a, b)";
  std::string f = ValidFrame(payload, FrameType::kReadRequest);
  for (size_t i = 0; i < f.size(); ++i) {
    for (uint8_t bit = 0; bit < 8; ++bit) {
      std::string corrupted = f;
      corrupted[i] = static_cast<char>(corrupted[i] ^ (1u << bit));
      Status s;
      uint8_t type = 0;
      std::string got;
      FeedAndRead(corrupted, &s, &type, &got);
      if (s.ok()) {
        // Only a type-byte or seq-byte flip can survive (they are not under
        // the CRC); the payload must still be intact, so the answer cannot
        // be silently wrong.
        EXPECT_TRUE(i == 5 || i == 6 || i == 7)
            << "flip at byte " << i << " bit " << int(bit) << " decoded OK";
        EXPECT_EQ(got, payload);
      } else {
        EXPECT_EQ(s.code(), StatusCode::kDataLoss)
            << "flip at byte " << i << ": " << s.ToString();
      }
    }
  }
}

TEST(NetFrameFuzzTest, RandomGarbageStreamsAreTypedErrors) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> length(0, 200);
  for (int round = 0; round < 500; ++round) {
    std::string garbage(length(rng), '\0');
    for (char& c : garbage) c = static_cast<char>(byte(rng));
    Status s;
    uint8_t type = 0;
    std::string payload;
    FeedAndRead(garbage, &s, &type, &payload);
    // Random bytes form a valid frame with probability ~2^-64 (magic + CRC);
    // in practice: always a typed error.
    ASSERT_FALSE(s.ok()) << "round " << round;
    ASSERT_TRUE(s.code() == StatusCode::kUnavailable ||
                s.code() == StatusCode::kDataLoss)
        << s.ToString();
  }
}

TEST(NetFrameFuzzTest, RandomPayloadMutationsOfValidFramesAreCaught) {
  std::mt19937 rng(987654);
  WireReadRequest request;
  request.antecedents = {"P(a)", "Q(a, b)"};
  request.consequent = "P(b) | Q(b, a)";
  std::string f = *EncodeFrame(FrameType::kReadRequest,
                               EncodeReadRequest(request), 3);
  std::uniform_int_distribution<size_t> pos(kHeaderSize, f.size() - 1);
  std::uniform_int_distribution<int> byte(1, 255);
  for (int round = 0; round < 300; ++round) {
    std::string corrupted = f;
    corrupted[pos(rng)] ^= static_cast<char>(byte(rng));
    Status s;
    uint8_t type = 0;
    std::string payload;
    FeedAndRead(corrupted, &s, &type, &payload);
    ASSERT_FALSE(s.ok()) << "payload corruption survived CRC in round "
                         << round;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  }
}

TEST(NetFrameFuzzTest, MessageDecodersRejectRandomPayloads) {
  // Even when a frame passes CRC (an attacker can fix up the CRC), the typed
  // decoders must reject malformed bodies instead of crashing.
  std::mt19937 rng(13579);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> length(0, 64);
  for (int round = 0; round < 500; ++round) {
    std::string garbage(length(rng), '\0');
    for (char& c : garbage) c = static_cast<char>(byte(rng));
    // Exercise every decoder; none may crash or over-allocate.
    (void)DecodeReadRequest(garbage);
    (void)DecodeReadReply(garbage);
    (void)DecodeApplyRequest(garbage);
    (void)DecodeApplyReply(garbage);
    (void)DecodeError(garbage);
    (void)DecodeStatsReply(garbage);
    (void)DecodeReplSubscribe(garbage);
    (void)DecodeReplSubscribeReply(garbage);
    (void)DecodeReplFetch(garbage);
    (void)DecodeReplRecords(garbage);
    (void)DecodeReplCkptFetch(garbage);
    (void)DecodeReplCkptChunk(garbage);
  }
  SUCCEED();
}

TEST(NetFrameFuzzTest, ChainDepthCapEnforcedAtDecode) {
  WireReadRequest r;
  r.consequent = "P(a)";
  for (size_t i = 0; i <= kMaxChainDepth; ++i) r.antecedents.push_back("P(a)");
  auto decoded = DecodeReadRequest(EncodeReadRequest(r));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace kbt::net
