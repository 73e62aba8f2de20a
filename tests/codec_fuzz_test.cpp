// Property tests for the wire codec: randomized Value trees must round-trip
// exactly, truncations at every byte offset must be rejected (never crash,
// never loop), and single-byte corruptions must either decode to something
// or throw — never hang or read out of bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/error.h"
#include "net/codec.h"
#include "support/rng.h"
#include "support/stats.h"

namespace alps::net {
namespace {

/// Random Value tree (no channels — those need a resolver and are covered
/// in net_test.cpp).
Value random_value(support::Rng& rng, int depth) {
  const std::uint64_t kind = rng.next_below(depth > 0 ? 7 : 6);
  switch (kind) {
    case 0: return Value();
    case 1: return Value(rng.next_bool());
    case 2: return Value(static_cast<std::int64_t>(rng.next()));
    case 3: return Value(rng.next_double() * 1e6 - 5e5);
    case 4: {
      std::string s;
      const auto len = rng.next_below(24);
      for (std::uint64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('a' + rng.next_below(26)));
      }
      return Value(std::move(s));
    }
    case 5: {
      Blob b;
      const auto len = rng.next_below(16);
      for (std::uint64_t i = 0; i < len; ++i) {
        b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
      return Value(std::move(b));
    }
    default: {
      ValueList list;
      const auto len = rng.next_below(5);
      for (std::uint64_t i = 0; i < len; ++i) {
        list.push_back(random_value(rng, depth - 1));
      }
      return Value(std::move(list));
    }
  }
}

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomTreesRoundTripExactly) {
  support::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    ValueList original;
    const auto n = rng.next_below(6);
    for (std::uint64_t i = 0; i < n; ++i) {
      original.push_back(random_value(rng, 3));
    }
    FrameBuilder fb;
    encode_list(original, fb);
    const auto buf = fb.build();
    std::size_t pos = 0;
    ValueList decoded = decode_list(buf, pos);
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(decoded, original);
  }
}

TEST_P(CodecFuzz, EveryTruncationRejectedOrConsistent) {
  support::Rng rng(GetParam() + 1000);
  ValueList original;
  for (int i = 0; i < 4; ++i) original.push_back(random_value(rng, 2));
  FrameBuilder fb;
  encode_list(original, fb);
  const auto buf = fb.build();
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<std::uint8_t> shorter(buf.begin(),
                                      buf.begin() + static_cast<std::ptrdiff_t>(cut));
    std::size_t pos = 0;
    EXPECT_THROW(decode_list(shorter, pos), Error) << "cut at " << cut;
  }
}

TEST_P(CodecFuzz, SingleByteCorruptionNeverCrashes) {
  support::Rng rng(GetParam() + 2000);
  ValueList original;
  for (int i = 0; i < 4; ++i) original.push_back(random_value(rng, 2));
  FrameBuilder fb;
  encode_list(original, fb);
  const auto buf = fb.build();
  for (int trial = 0; trial < 100; ++trial) {
    auto corrupted = buf;
    const auto at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    std::size_t pos = 0;
    try {
      ValueList out = decode_list(corrupted, pos);
      // Decoded to something: acceptable — the codec has no checksums, some
      // corruptions produce a different but well-formed value.
      (void)out;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
    }
  }
}

// ---- hostile length fields -------------------------------------------------
//
// Length prefixes are attacker-controlled: a flipped byte can claim a 4 GB
// string inside a 20-byte frame. Every decode path must reject it with a
// typed kBadMessage — never resize/reserve to the claimed length first.

void expect_bad_message(const FrameBuilder& frame) {
  const auto buf = frame.build();
  std::size_t pos = 0;
  try {
    (void)decode_list(buf, pos);
    FAIL() << "hostile frame decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
  }
}

TEST(CodecHostile, OversizedStringLengthRejected) {
  FrameBuilder fb;
  fb.put_u32(1);  // one element
  fb.put_u8(static_cast<std::uint8_t>(ValueKind::kString));
  fb.put_u32(0xFFFFFFFFu);  // claims 4 GB of chars
  fb.put_string("tiny");    // actual bytes: far fewer
  expect_bad_message(fb);
}

TEST(CodecHostile, OversizedBlobLengthRejected) {
  FrameBuilder fb;
  fb.put_u32(1);
  fb.put_u8(static_cast<std::uint8_t>(ValueKind::kBlob));
  fb.put_u32(0x7FFFFFFFu);
  fb.put_u8(0xAB);  // one actual byte
  expect_bad_message(fb);
}

TEST(CodecHostile, OversizedListCountRejected) {
  FrameBuilder fb;
  fb.put_u32(0xFFFFFF00u);  // count far beyond the remaining bytes
  expect_bad_message(fb);
}

TEST(CodecHostile, OversizedLengthAgainstOwnedFrameRejected) {
  // The aliasing path (owned input) takes a different branch than borrowed
  // views; the guard must hold there too.
  FrameBuilder raw;
  raw.put_u32(1);
  raw.put_u8(static_cast<std::uint8_t>(ValueKind::kBlob));
  raw.put_u32(0xFFFF0000u);
  for (int i = 0; i < 16; ++i) raw.put_u8(0x55);
  Buffer frame = Buffer::adopt(raw.build());
  std::size_t pos = 0;
  try {
    (void)decode_list(frame, pos);
    FAIL() << "hostile frame decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
  }
}

TEST(CodecHostile, OversizedHeaderStringRejected) {
  FrameBuilder fb;
  encode_request_header(RequestHeader{1, 2, 3, 0, "Dict", "Get"}, fb);
  auto buf = fb.build();
  // The object-name length prefix sits right after the four u64 fields.
  const std::size_t name_len_at = 1 + 8 * 4;
  buf[name_len_at + 3] = 0xFF;  // now claims a ~4 GB object name
  std::size_t pos = 1;
  EXPECT_THROW((void)decode_request_header(buf, pos), Error);
}

TEST(CodecHostile, ZeroLengthStringAndBlobRoundTrip) {
  // Degenerate-but-legal payloads must survive, not be confused with the
  // hostile cases above.
  ValueList original{Value(std::string()), Value(Blob{})};
  FrameBuilder fb;
  encode_list(original, fb);
  const auto buf = fb.build();
  std::size_t pos = 0;
  ValueList decoded = decode_list(buf, pos);
  EXPECT_EQ(pos, buf.size());
  EXPECT_EQ(decoded, original);
  EXPECT_TRUE(decoded[0].as_string().empty());
  EXPECT_TRUE(decoded[1].as_blob().empty());
}

TEST(CodecHostile, ZeroLengthBatchMemberRejected) {
  FrameBuilder fb;
  fb.put_u8(static_cast<std::uint8_t>(MsgType::kBatch));
  fb.put_u32(1);  // one member...
  fb.put_u32(0);  // ...of zero bytes (no type byte — meaningless)
  const auto buf = fb.build();
  std::size_t pos = 1;
  try {
    (void)decode_batch(buf, pos);
    FAIL() << "empty batch member decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
  }
}

TEST(CodecHostile, OversizedBatchMemberLengthRejected) {
  FrameBuilder fb;
  fb.put_u8(static_cast<std::uint8_t>(MsgType::kBatch));
  fb.put_u32(1);
  fb.put_u32(0xFFFFFFF0u);  // claimed member length >> remaining bytes
  encode_ack(5, fb);
  const auto buf = fb.build();
  std::size_t pos = 1;
  EXPECT_THROW((void)decode_batch(buf, pos), Error);
}

TEST(CodecHostile, BatchCountBeyondOneFifthOfTheFrameRejected) {
  // Every member costs at least a 4-byte length and a type byte, so a
  // count above remaining/5 cannot fit. It must be refused before the
  // decoder reserves that many member slots: in a 64 MiB stream frame an
  // unchecked count reserves gigabytes.
  FrameBuilder fb;
  fb.put_u8(static_cast<std::uint8_t>(MsgType::kBatch));
  const std::size_t remaining = 100;
  fb.put_u32(static_cast<std::uint32_t>(remaining / 5 + 1));
  for (std::size_t i = 0; i < remaining; ++i) fb.put_u8(0);
  const auto buf = fb.build();
  std::size_t pos = 1;
  try {
    (void)decode_batch(buf, pos);
    FAIL() << "impossible batch count decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
    EXPECT_NE(std::string(e.what()).find("batch count exceeds frame size"),
              std::string::npos)
        << e.what();
  }
}

// ---- RPC frame headers (request/response/ack) ------------------------------

/// Decodes a full request frame the way Node::handle_frame does: type byte,
/// header, then the parameter list.
void decode_request_frame(const std::vector<std::uint8_t>& buf) {
  std::size_t pos = 0;
  if (get_u8(buf, pos) != static_cast<std::uint8_t>(MsgType::kRequest)) {
    raise(ErrorCode::kBadMessage, "wrong frame type");
  }
  (void)decode_request_header(buf, pos);
  (void)decode_list(buf, pos);
}

void decode_response_frame(const std::vector<std::uint8_t>& buf) {
  std::size_t pos = 0;
  if (get_u8(buf, pos) != static_cast<std::uint8_t>(MsgType::kResponse)) {
    raise(ErrorCode::kBadMessage, "wrong frame type");
  }
  (void)decode_response_header(buf, pos);
  (void)decode_list(buf, pos);
}

TEST_P(CodecFuzz, RequestFrameTruncationsRejected) {
  support::Rng rng(GetParam() + 3000);
  FrameBuilder fb;
  encode_request_header(RequestHeader{rng.next(), rng.next(), rng.next(),
                                      rng.next(), "Dictionary", "Insert"},
                        fb);
  ValueList params;
  for (int i = 0; i < 3; ++i) params.push_back(random_value(rng, 2));
  encode_list(params, fb);
  const auto buf = fb.build();
  ASSERT_NO_THROW(decode_request_frame(buf));
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<std::uint8_t> shorter(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_request_frame(shorter), Error) << "cut at " << cut;
  }
}

TEST_P(CodecFuzz, ResponseFrameTruncationsRejected) {
  support::Rng rng(GetParam() + 4000);
  FrameBuilder fb;
  encode_response_header(
      ResponseHeader{rng.next(), WireCause::kOk, kResponseFlagReplayed}, fb);
  ValueList results;
  for (int i = 0; i < 2; ++i) results.push_back(random_value(rng, 2));
  encode_list(results, fb);
  const auto buf = fb.build();
  ASSERT_NO_THROW(decode_response_frame(buf));
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    std::vector<std::uint8_t> shorter(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(decode_response_frame(shorter), Error) << "cut at " << cut;
  }
}

TEST_P(CodecFuzz, AckTruncationsRejected) {
  FrameBuilder fb;
  encode_ack(GetParam() * 7919u, fb);
  const auto buf = fb.build();
  std::size_t pos = 1;  // past the type byte
  EXPECT_EQ(decode_ack(buf, pos), GetParam() * 7919u);
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    std::vector<std::uint8_t> shorter(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    pos = 1;
    EXPECT_THROW(decode_ack(shorter, pos), Error) << "cut at " << cut;
  }
}

TEST_P(CodecFuzz, RequestFlagsSurviveTheRoundTrip) {
  // The read-only bit rides in RequestHeader::flags (encoded after
  // deadline_ms, so the in-frame ack patch offset is untouched); a replica
  // decides dispatch-vs-redirect off it, so it must round-trip bit-exact.
  support::Rng rng(GetParam() + 5000);
  const std::uint8_t flags =
      (GetParam() % 2) ? kRequestFlagReadOnly
                       : static_cast<std::uint8_t>(rng.next() & 0xff);
  const RequestHeader original{rng.next(), rng.next(), rng.next(),
                               rng.next(), "Dict",     "Get",
                               flags};
  FrameBuilder fb;
  encode_request_header(original, fb);
  const auto buf = fb.build();
  std::size_t pos = 1;  // past the type byte
  EXPECT_EQ(decode_request_header(buf, pos), original);
}

TEST_P(CodecFuzz, WrongNodeTruncationsRejected) {
  support::Rng rng(GetParam() + 6000);
  // Shard hint + map epoch ride every redirect; half the seeds use the
  // "whole object re-homed" sentinel form.
  const std::uint32_t shard = (GetParam() % 2)
                                  ? kWrongNodeNoShard
                                  : static_cast<std::uint32_t>(rng.next() & 7);
  const WrongNodeHeader original{rng.next(), rng.next(), "Dictionary", shard,
                                 rng.next()};
  FrameBuilder fb;
  encode_wrong_node(original, fb);
  const auto buf = fb.build();
  std::size_t pos = 0;
  ASSERT_EQ(get_u8(buf, pos), static_cast<std::uint8_t>(MsgType::kWrongNode));
  EXPECT_EQ(decode_wrong_node(buf, pos), original);
  EXPECT_EQ(pos, buf.size());
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    std::vector<std::uint8_t> shorter(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    pos = 1;  // past the type byte
    EXPECT_THROW(decode_wrong_node(shorter, pos), Error) << "cut at " << cut;
  }
}

TEST_P(CodecFuzz, BatchTruncationsRejected) {
  support::Rng rng(GetParam() + 7000);
  // A realistic batch: an ack, a request and a response as members.
  std::vector<FrameBuilder> members(3);
  encode_ack(rng.next(), members[0]);
  encode_request_header(RequestHeader{rng.next(), rng.next(), rng.next(),
                                      rng.next(), "Dict", "Get"},
                        members[1]);
  encode_list(vals(1), members[1]);
  encode_response_header(ResponseHeader{rng.next(), WireCause::kOk, 0},
                         members[2]);
  encode_list(vals(2), members[2]);
  FrameBuilder fb;
  encode_batch(members, fb);
  const auto buf = fb.build();
  std::size_t pos = 0;
  ASSERT_EQ(get_u8(buf, pos), static_cast<std::uint8_t>(MsgType::kBatch));
  const auto decoded = decode_batch(buf, pos);
  ASSERT_EQ(decoded.size(), members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(decoded[i].to_blob(), members[i].build()) << "member " << i;
  }
  EXPECT_EQ(pos, buf.size());
  for (std::size_t cut = 1; cut < buf.size(); ++cut) {
    std::vector<std::uint8_t> shorter(
        buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(cut));
    pos = 1;
    EXPECT_THROW(decode_batch(shorter, pos), Error) << "cut at " << cut;
  }
}

TEST_P(CodecFuzz, BatchCorruptionNeverCrashesNorOverallocates) {
  support::Rng rng(GetParam() + 8000);
  std::vector<FrameBuilder> members(2);
  encode_ack(rng.next(), members[0]);
  encode_ack(rng.next(), members[1]);
  FrameBuilder fb;
  encode_batch(members, fb);
  const auto buf = fb.build();
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = buf;
    const auto at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    std::size_t pos = 1;
    try {
      // A corrupted count or member length must be caught by the
      // remaining-bytes validation, never turn into a huge allocation.
      (void)decode_batch(corrupted, pos);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
    }
  }
}

TEST_P(CodecFuzz, HeaderCorruptionNeverCrashes) {
  support::Rng rng(GetParam() + 5000);
  FrameBuilder fb;
  encode_response_header(ResponseHeader{rng.next(), WireCause::kRemoteError, 0},
                         fb);
  encode_list(vals(std::string("boom")), fb);
  const auto buf = fb.build();
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = buf;
    const auto at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      decode_response_frame(corrupted);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
    }
  }
}

// ---- stream framing (socket transport byte streams) ----

/// Encodes one complete stream chunk (header + payload) for feeding.
std::vector<std::uint8_t> stream_chunk(NodeId src,
                                       const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out(kStreamHeaderBytes);
  encode_stream_header(src, body.size(), out.data());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

TEST_P(CodecFuzz, StreamReassemblesAcrossArbitrarilyTornReads) {
  support::Rng rng(GetParam() + 9000);
  for (int trial = 0; trial < 40; ++trial) {
    // A run of frames with mixed sizes (empty through multi-KB), concatenated
    // as one wire stream, then fed in random-sized fragments — including
    // fragments that tear headers and bodies at every possible offset.
    std::vector<std::vector<std::uint8_t>> bodies;
    std::vector<std::uint8_t> wire;
    const auto frames = 1 + rng.next_below(8);
    for (std::uint64_t f = 0; f < frames; ++f) {
      std::vector<std::uint8_t> body(1 + (rng.next_below(3) == 0
                                              ? rng.next_below(4096)
                                              : rng.next_below(32)));
      for (auto& b : body) b = static_cast<std::uint8_t>(rng.next_below(256));
      const auto chunk = stream_chunk(7, body);
      wire.insert(wire.end(), chunk.begin(), chunk.end());
      bodies.push_back(std::move(body));
    }
    StreamReassembler reassembler;
    std::vector<std::vector<std::uint8_t>> got;
    std::size_t pos = 0;
    while (pos < wire.size()) {
      const auto n =
          std::min<std::size_t>(1 + rng.next_below(64), wire.size() - pos);
      reassembler.feed(wire.data() + pos, n);
      pos += n;
      while (auto msg = reassembler.next()) {
        EXPECT_EQ(msg->src, 7u);
        got.emplace_back(msg->payload.data(),
                         msg->payload.data() + msg->payload.size());
      }
    }
    ASSERT_EQ(got.size(), bodies.size());
    for (std::size_t f = 0; f < bodies.size(); ++f) EXPECT_EQ(got[f], bodies[f]);
    EXPECT_FALSE(reassembler.mid_frame());
    EXPECT_EQ(reassembler.buffered_bytes(), 0u);
  }
}

TEST(StreamFraming, OversizedLengthPoisonsTheStream) {
  // length > kMaxStreamFrameBytes must be rejected before any allocation,
  // and the reassembler must stay rejecting: a byte stream with a corrupt
  // length field has no resync point.
  std::vector<std::uint8_t> header(kStreamHeaderBytes, 0);
  const std::uint32_t bad = kMaxStreamFrameBytes + 1;
  std::memcpy(header.data(), &bad, sizeof(bad));
  StreamReassembler reassembler;
  const auto poisoned_before = support::net_health().streams_poisoned.get();
  EXPECT_THROW(reassembler.feed(header.data(), header.size()), Error);
  EXPECT_EQ(support::net_health().streams_poisoned.get(), poisoned_before + 1)
      << "a poisoned stream must surface in the process-wide health counter";
  const std::uint8_t byte = 0;
  EXPECT_THROW(reassembler.feed(&byte, 1), Error) << "stream must stay poisoned";
}

TEST(StreamFraming, UndersizedLengthRejected) {
  // length < 9 cannot hold the src field plus the payload's MsgType byte,
  // so every value through 8 is corruption on this wire.
  const auto poisoned_before = support::net_health().streams_poisoned.get();
  for (std::uint32_t bad : {0u, 1u, 7u, 8u}) {
    std::vector<std::uint8_t> header(kStreamHeaderBytes, 0);
    std::memcpy(header.data(), &bad, sizeof(bad));
    StreamReassembler reassembler;
    EXPECT_THROW(reassembler.feed(header.data(), header.size()), Error)
        << "length " << bad;
  }
  EXPECT_EQ(support::net_health().streams_poisoned.get(), poisoned_before + 4);
}

TEST(StreamFraming, MidFrameDropLeavesPartialObservable) {
  // A connection dying mid-frame abandons the reassembler with the torn
  // tail; mid_frame()/buffered_bytes() are what the owner counts as lost.
  const auto chunk = stream_chunk(3, std::vector<std::uint8_t>(100, 0xab));
  {
    StreamReassembler reassembler;  // torn inside the header
    reassembler.feed(chunk.data(), kStreamHeaderBytes / 2);
    EXPECT_TRUE(reassembler.mid_frame());
    EXPECT_FALSE(reassembler.next().has_value());
  }
  {
    StreamReassembler reassembler;  // torn inside the body
    reassembler.feed(chunk.data(), chunk.size() - 10);
    EXPECT_TRUE(reassembler.mid_frame());
    EXPECT_GT(reassembler.buffered_bytes(), 0u);
    EXPECT_FALSE(reassembler.next().has_value());
    // The tail arriving later (same connection) still completes the frame.
    reassembler.feed(chunk.data() + chunk.size() - 10, 10);
    auto msg = reassembler.next();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->src, 3u);
    EXPECT_EQ(msg->payload.size(), 100u);
  }
}

TEST_P(CodecFuzz, StreamLengthCorruptionNeverCrashesNorOverallocates) {
  support::Rng rng(GetParam() + 9500);
  const auto chunk = stream_chunk(9, {1, 2, 3, 4, 5});
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = chunk;
    const auto at = rng.next_below(kStreamHeaderBytes);
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    StreamReassembler reassembler;
    try {
      reassembler.feed(corrupted.data(), corrupted.size());
      while (reassembler.next()) {
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
    }
  }
}

// ---- HELLO handshake frames (socket transport connection admission) ----

TEST_P(CodecFuzz, HelloRoundTripsAcrossArbitrarilyTornReads) {
  support::Rng rng(GetParam() + 11000);
  for (int trial = 0; trial < 40; ++trial) {
    HelloFrame hello;
    hello.node = rng.next();
    std::string token;
    const auto len = rng.next_below(64);
    for (std::uint64_t i = 0; i < len; ++i) {
      token.push_back(static_cast<char>(rng.next_below(256)));
    }
    hello.token = std::move(token);
    FrameBuilder fb;
    encode_hello(hello, fb);
    std::vector<std::uint8_t> wire = fb.build();
    // Trailing stream bytes must be left unconsumed for the reassembler.
    const std::vector<std::uint8_t> trailer{0xde, 0xad, 0xbe, 0xef};
    wire.insert(wire.end(), trailer.begin(), trailer.end());

    HelloReader reader;
    std::size_t pos = 0;
    bool complete = false;
    std::vector<std::uint8_t> leftover;
    while (pos < wire.size()) {
      const auto n =
          std::min<std::size_t>(1 + rng.next_below(16), wire.size() - pos);
      const std::uint8_t* data = wire.data() + pos;
      std::size_t remaining = n;
      pos += n;
      if (!complete) {
        complete = reader.feed(data, remaining);
        if (!complete) {
          EXPECT_EQ(remaining, 0u) << "an incomplete hello consumes all input";
        }
      }
      leftover.insert(leftover.end(), data, data + remaining);
    }
    ASSERT_TRUE(complete);
    EXPECT_EQ(reader.hello(), hello);
    EXPECT_EQ(leftover, trailer)
        << "bytes after the hello belong to the framing layer";
  }
}

TEST(HelloFrames, BadMagicRejectedOnFirstFourBytes) {
  // An impostor's first bytes are rejected as soon as the magic is readable
  // — no need to wait for a full hello's worth of garbage.
  const std::vector<std::uint8_t> garbage{'H', 'T', 'T', 'P'};
  HelloReader reader;
  const std::uint8_t* data = garbage.data();
  std::size_t n = garbage.size();
  EXPECT_THROW(reader.feed(data, n), Error);
}

TEST(HelloFrames, OversizedTokenRejectedBeforeAllocation) {
  HelloFrame hello;
  FrameBuilder fb;
  encode_hello(hello, fb);
  std::vector<std::uint8_t> wire = fb.build();
  const std::uint32_t huge = kMaxHelloTokenBytes + 1;
  std::memcpy(wire.data() + kHelloFixedBytes - 4, &huge, sizeof(huge));
  HelloReader reader;
  const std::uint8_t* data = wire.data();
  std::size_t n = wire.size();
  EXPECT_THROW(reader.feed(data, n), Error);

  // And the encoder refuses to produce one in the first place.
  HelloFrame bloated;
  bloated.token.assign(kMaxHelloTokenBytes + 1, 'x');
  FrameBuilder out;
  EXPECT_THROW(encode_hello(bloated, out), Error);
}

TEST_P(CodecFuzz, HelloCorruptionNeverCrashesNorOverallocates) {
  support::Rng rng(GetParam() + 11500);
  HelloFrame hello;
  hello.node = 42;
  hello.token = "cluster-secret";
  FrameBuilder fb;
  encode_hello(hello, fb);
  const auto wire = fb.build();
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = wire;
    const auto at = rng.next_below(corrupted.size());
    corrupted[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    HelloReader reader;
    const std::uint8_t* data = corrupted.data();
    std::size_t n = corrupted.size();
    try {
      if (reader.feed(data, n)) {
        // Decoded to something (magic/version/node/token bytes flipped are
        // the validator's problem) — must still be internally consistent.
        EXPECT_LE(reader.hello().token.size(), kMaxHelloTokenBytes);
      }
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadMessage);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz,
                         ::testing::Values(1u, 42u, 20260704u));

}  // namespace
}  // namespace alps::net
