// Golden wire bytes: the exact encoding of every frame kind the RPC layer
// and the stream transports put on a link.
//
// Round-trip tests cannot see a format change, because the encoder and the
// decoder change together. These cases pin the bytes themselves, so a
// refactor of the codec (or of who calls it) that moves a single byte fails
// here. Every integer on the wire is little-endian.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/value.h"
#include "net/codec.h"

namespace {

using namespace alps;
using namespace alps::net;

using Bytes = std::vector<std::uint8_t>;

/// The bytes `encode` writes into a fresh frame. The frame encoders take a
/// FrameBuilder; the byte-vector branch lets the same expectations also run
/// against a codec whose encoders append to a plain byte vector, so these
/// bytes can be checked on either side of a change to the encoder's form.
template <class Encode>
Bytes wire(const Encode& encode) {
  if constexpr (std::is_invocable_v<const Encode&, FrameBuilder&>) {
    FrameBuilder out;
    encode(out);
    return out.build();
  } else {
    Bytes out;
    encode(out);
    return out;
  }
}

/// Appends `s`'s characters (no length prefix) to `b`.
Bytes& chars(Bytes& b, const std::string& s) {
  b.insert(b.end(), s.begin(), s.end());
  return b;
}

TEST(CodecGolden, RequestHeader) {
  const RequestHeader h{7,          0x1122334455667788ull, 6, 250, "Dict",
                        "Search",   kRequestFlagReadOnly};
  Bytes want = {
      0x01,                                            // kRequest
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // req_id
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // epoch
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // ack_through
      0xfa, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // deadline_ms
      0x01,                                            // flags: read-only
      0x04, 0x00, 0x00, 0x00,                          // object length
  };
  chars(want, "Dict");
  want.insert(want.end(), {0x06, 0x00, 0x00, 0x00});  // entry length
  chars(want, "Search");
  EXPECT_EQ(wire([&](auto& out) { encode_request_header(h, out); }), want);
  // The in-place ack patch (kWrongNode re-route) writes at this offset.
  EXPECT_EQ(kRequestAckOffset, 17u);
  EXPECT_EQ(want[kRequestAckOffset], 0x06);
}

TEST(CodecGolden, ResponseHeaderForEveryCause) {
  const WireCause causes[] = {WireCause::kOk,          WireCause::kRemoteError,
                              WireCause::kObjectNotFound, WireCause::kTimeout,
                              WireCause::kCancelled,   WireCause::kObjectDown};
  std::uint8_t expected_byte = 0;
  for (const WireCause cause : causes) {
    SCOPED_TRACE(static_cast<int>(cause));
    const Bytes want = {
        0x02,                                            // kResponse
        0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // req_id
        expected_byte,                                   // cause
        0x01,                                            // flags: replayed
    };
    const ResponseHeader h{42, cause, kResponseFlagReplayed};
    EXPECT_EQ(wire([&](auto& out) { encode_response_header(h, out); }), want);
    ++expected_byte;
  }
  // The replayed-bit patch on a cached response writes at this offset.
  EXPECT_EQ(kResponseFlagsOffset, 10u);
}

TEST(CodecGolden, Ack) {
  const Bytes want = {
      0x04,                                            // kAck
      0x0b, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // ack_through
  };
  EXPECT_EQ(wire([](auto& out) -> decltype(encode_ack(0x0a0b, out)) {
              encode_ack(0x0a0b, out);
            }),
            want);
}

TEST(CodecGolden, WrongNodeWithShardHint) {
  const WrongNodeHeader h{9, 3, "Dict", 2, 5};
  Bytes want = {
      0x05,                                            // kWrongNode
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // req_id
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // home
      0x04, 0x00, 0x00, 0x00,                          // object length
  };
  chars(want, "Dict");
  want.insert(want.end(), {
                              0x02, 0x00, 0x00, 0x00,  // shard
                              0x05, 0x00, 0x00, 0x00,  // map_epoch
                              0x00, 0x00, 0x00, 0x00,
                          });
  EXPECT_EQ(wire([&](auto& out) -> decltype(encode_wrong_node(h, out)) {
              encode_wrong_node(h, out);
            }),
            want);
}

TEST(CodecGolden, TwoMemberBatchEnvelope) {
  // Member 1: an Ok response carrying [5, "hi"].
  std::vector<FrameBuilder> members(2);
  encode_response_header(ResponseHeader{2, WireCause::kOk, 0}, members[0]);
  encode_list({Value(std::int64_t{5}), Value(std::string("hi"))}, members[0]);
  // Member 2: a cancelled response carrying its error string.
  encode_response_header(ResponseHeader{3, WireCause::kCancelled, 0},
                         members[1]);
  members[1].put_string("gone");

  const Bytes member1 = {
      0x02,                                            // kResponse
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // req_id
      0x00, 0x00,                                      // kOk, flags
      0x02, 0x00, 0x00, 0x00,                          // list count
      0x02,                                            // ValueKind::kInt
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04,                                            // ValueKind::kString
      0x02, 0x00, 0x00, 0x00, 'h', 'i',
  };
  const Bytes member2 = {
      0x02,                                            // kResponse
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // req_id
      0x04, 0x00,                                      // kCancelled, flags
      0x04, 0x00, 0x00, 0x00, 'g', 'o', 'n', 'e',
  };
  Bytes want = {
      0x06,                    // kBatch
      0x02, 0x00, 0x00, 0x00,  // member count
      0x1f, 0x00, 0x00, 0x00,  // member 1 length (31)
  };
  ASSERT_EQ(member1.size(), 0x1fu);
  want.insert(want.end(), member1.begin(), member1.end());
  want.insert(want.end(), {0x13, 0x00, 0x00, 0x00});  // member 2 length (19)
  ASSERT_EQ(member2.size(), 0x13u);
  want.insert(want.end(), member2.begin(), member2.end());

  FrameBuilder envelope;
  encode_batch(members, envelope);
  EXPECT_EQ(envelope.build(), want);
}

TEST(CodecGolden, Hello) {
  HelloFrame h;
  h.node = 0x0102;
  h.token = "tok";
  Bytes want = {
      0x41, 0x4c, 0x50, 0x53,                          // magic "ALPS"
      0x01, 0x00, 0x00, 0x00,                          // version
      0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // node
      0x03, 0x00, 0x00, 0x00,                          // token length
  };
  chars(want, "tok");
  ASSERT_EQ(want.size(), kHelloFixedBytes + 3);
  EXPECT_EQ(wire([&](auto& out) -> decltype(encode_hello(h, out)) {
              encode_hello(h, out);
            }),
            want);
}

TEST(CodecGolden, StreamChunkHeader) {
  std::uint8_t header[kStreamHeaderBytes];
  encode_stream_header(0x0102, 9, header);
  const Bytes want = {
      0x11, 0x00, 0x00, 0x00,                          // length: src + 9
      0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // src
  };
  EXPECT_EQ(Bytes(header, header + kStreamHeaderBytes), want);
}

}  // namespace
