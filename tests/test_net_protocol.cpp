// Property/fuzz tests for the serving layer's wire codec
// (net/protocol.hpp): random frames must round-trip exactly through the
// incremental decoders under arbitrary chunking, and truncated,
// corrupted, or oversized streams must be rejected cleanly (no crash,
// no garbage frame) — run under ASan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "net/protocol.hpp"
#include "test_seed.hpp"

namespace rhik::net {
namespace {

/// Every assigned opcode (4, the retired one-shot ITER, is a gap).
constexpr Opcode kOpcodes[] = {Opcode::kPut,      Opcode::kGet,
                               Opcode::kDel,      Opcode::kStatus,
                               Opcode::kIterOpen, Opcode::kIterNext,
                               Opcode::kIterClose};

Opcode random_opcode(std::mt19937_64& rng) {
  return kOpcodes[rng() % std::size(kOpcodes)];
}

RequestFrame random_request(std::mt19937_64& rng, const WireLimits& limits) {
  RequestFrame f;
  f.opcode = random_opcode(rng);
  f.tenant_id = static_cast<std::uint32_t>(rng());
  f.request_id = rng();
  f.limit = static_cast<std::uint32_t>(rng() % 1000);
  f.key.resize(rng() % (limits.max_key_len + 1));
  for (auto& b : f.key) b = static_cast<std::uint8_t>(rng());
  // Bias small: megabyte values make the fuzz loop IO-bound for no
  // extra coverage.
  const std::size_t vmax = rng() % 8 == 0 ? limits.max_value_len : 512;
  f.value.resize(rng() % (vmax + 1));
  for (auto& b : f.value) b = static_cast<std::uint8_t>(rng());
  return f;
}

ResponseFrame random_response(std::mt19937_64& rng) {
  ResponseFrame f;
  f.opcode = random_opcode(rng);
  f.status = static_cast<api::KvsResult>(
      rng() % (static_cast<unsigned>(api::KvsResult::KVS_ERR_QUEUE_FULL) + 1));
  f.request_id = rng();
  f.extra = static_cast<std::uint32_t>(rng());
  f.value.resize(rng() % 600);
  for (auto& b : f.value) b = static_cast<std::uint8_t>(rng());
  return f;
}

/// Feeds `stream` to the decoder in random-sized chunks.
template <typename Decoder, typename Frame>
std::vector<Frame> chunked_decode(Decoder& dec, const Bytes& stream,
                                  std::mt19937_64& rng) {
  std::vector<Frame> out;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 4096, stream.size() - off);
    dec.feed(ByteSpan(stream.data() + off, n));
    off += n;
    Frame f;
    for (;;) {
      const DecodeStatus ds = dec.next(&f);
      if (ds == DecodeStatus::kFrame) {
        out.push_back(std::move(f));
        continue;
      }
      EXPECT_EQ(ds, DecodeStatus::kNeedMore);
      break;
    }
  }
  return out;
}

TEST(NetProtocol, RequestRoundTripRandomChunks) {
  const std::uint64_t seed = test::harness_seed(0xC0DEC0DEull);
  std::mt19937_64 rng(seed);
  const WireLimits limits;
  for (int round = 0; round < 10; ++round) {
    std::vector<RequestFrame> sent;
    Bytes stream;
    for (int i = 0; i < 50; ++i) {
      sent.push_back(random_request(rng, limits));
      encode_request(sent.back(), &stream);
    }
    RequestDecoder dec(limits);
    const auto got = chunked_decode<RequestDecoder, RequestFrame>(
        dec, stream, rng);
    ASSERT_EQ(got.size(), sent.size()) << "seed " << seed;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].opcode, sent[i].opcode) << "seed " << seed;
      EXPECT_EQ(got[i].tenant_id, sent[i].tenant_id) << "seed " << seed;
      EXPECT_EQ(got[i].request_id, sent[i].request_id) << "seed " << seed;
      EXPECT_EQ(got[i].limit, sent[i].limit) << "seed " << seed;
      EXPECT_EQ(got[i].key, sent[i].key) << "seed " << seed;
      EXPECT_EQ(got[i].value, sent[i].value) << "seed " << seed;
    }
  }
}

TEST(NetProtocol, ResponseRoundTripRandomChunks) {
  const std::uint64_t seed = test::harness_seed(0xFACEFEEDull);
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 10; ++round) {
    std::vector<ResponseFrame> sent;
    Bytes stream;
    for (int i = 0; i < 50; ++i) {
      sent.push_back(random_response(rng));
      encode_response(sent.back(), &stream);
    }
    ResponseDecoder dec;
    const auto got = chunked_decode<ResponseDecoder, ResponseFrame>(
        dec, stream, rng);
    ASSERT_EQ(got.size(), sent.size()) << "seed " << seed;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(got[i].opcode, sent[i].opcode) << "seed " << seed;
      EXPECT_EQ(got[i].status, sent[i].status) << "seed " << seed;
      EXPECT_EQ(got[i].request_id, sent[i].request_id) << "seed " << seed;
      EXPECT_EQ(got[i].extra, sent[i].extra) << "seed " << seed;
      EXPECT_EQ(got[i].value, sent[i].value) << "seed " << seed;
    }
  }
}

TEST(NetProtocol, TruncatedHeaderNeedsMore) {
  RequestFrame f;
  f.opcode = Opcode::kPut;
  f.key = {'k'};
  f.value = {'v'};
  Bytes stream;
  encode_request(f, &stream);
  // Every proper prefix of the frame must leave the decoder waiting,
  // never producing a frame or a fatal status.
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    RequestDecoder dec;
    dec.feed(ByteSpan(stream.data(), cut));
    RequestFrame out;
    EXPECT_EQ(dec.next(&out), DecodeStatus::kNeedMore) << "cut " << cut;
  }
}

TEST(NetProtocol, SingleBitHeaderCorruptionIsFatal) {
  RequestFrame f;
  f.opcode = Opcode::kGet;
  f.request_id = 42;
  f.key = {'a', 'b', 'c'};
  Bytes good;
  encode_request(f, &good);
  for (std::size_t byte = 0; byte < kRequestHeaderSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = good;
      bad[byte] ^= static_cast<std::uint8_t>(1u << bit);
      RequestDecoder dec;
      dec.feed(ByteSpan(bad));
      RequestFrame out;
      const DecodeStatus ds = dec.next(&out);
      EXPECT_TRUE(decode_fatal(ds))
          << "flip at byte " << byte << " bit " << bit
          << " produced status " << static_cast<int>(ds);
      // Poisoned: the decoder refuses to resynchronize even if clean
      // bytes follow.
      dec.feed(ByteSpan(good));
      EXPECT_TRUE(decode_fatal(dec.next(&out)));
    }
  }
}

TEST(NetProtocol, OversizedDeclarationRejectedBeforeBody) {
  WireLimits limits;
  limits.max_key_len = 16;
  limits.max_value_len = 64;
  RequestFrame f;
  f.opcode = Opcode::kPut;
  f.key.resize(17);   // over the key limit
  f.value.resize(8);
  Bytes stream;
  encode_request(f, &stream);
  RequestDecoder dec(limits);
  // Header only: the decoder must reject from the declared lengths
  // alone, without waiting for (or buffering) the body.
  dec.feed(ByteSpan(stream.data(), kRequestHeaderSize));
  RequestFrame out;
  EXPECT_EQ(dec.next(&out), DecodeStatus::kTooLarge);

  RequestFrame g;
  g.opcode = Opcode::kPut;
  g.key.resize(4);
  g.value.resize(65);  // over the value limit
  Bytes stream2;
  encode_request(g, &stream2);
  RequestDecoder dec2(limits);
  dec2.feed(ByteSpan(stream2.data(), kRequestHeaderSize));
  EXPECT_EQ(dec2.next(&out), DecodeStatus::kTooLarge);
}

// Regression: the response decoder's kTooLarge ceiling must scale with
// WireLimits::max_iter_keys — a full-sized ITER_NEXT key list (max_iter_keys
// keys of max_key_len bytes) is a valid frame the server can send, so
// the client must never reject it. A hardcoded smaller allowance used
// to poison the decoder on legitimate large responses.
TEST(NetProtocol, ResponseCapScalesWithMaxIterKeys) {
  WireLimits limits;
  limits.max_key_len = 8;
  limits.max_value_len = 16;
  limits.max_iter_keys = 4;
  const std::size_t cap =
      limits.max_value_len + (limits.max_key_len + 2) * limits.max_iter_keys;

  ResponseFrame f;
  f.opcode = Opcode::kIterNext;
  f.status = api::KvsResult::KVS_SUCCESS;
  f.value.resize(cap);  // exactly at the ceiling: must decode
  Bytes stream;
  encode_response(f, &stream);
  ResponseDecoder dec(limits);
  dec.feed(ByteSpan(stream));
  ResponseFrame out;
  EXPECT_EQ(dec.next(&out), DecodeStatus::kFrame);
  EXPECT_EQ(out.value.size(), cap);

  f.value.resize(cap + 1);  // one byte over: rejected from the header
  Bytes stream2;
  encode_response(f, &stream2);
  ResponseDecoder dec2(limits);
  dec2.feed(ByteSpan(stream2.data(), kResponseHeaderSize));
  EXPECT_EQ(dec2.next(&out), DecodeStatus::kTooLarge);
}

TEST(NetProtocol, RandomGarbageNeverDecodes) {
  const std::uint64_t seed = test::harness_seed(0xDEADBEEFull);
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 200; ++round) {
    Bytes junk(64 + rng() % 512);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng());
    RequestDecoder dec;
    dec.feed(ByteSpan(junk));
    RequestFrame out;
    const DecodeStatus ds = dec.next(&out);
    // A 1-in-2^32 magic collision still fails the CRC; garbage must
    // never parse into a frame.
    EXPECT_NE(ds, DecodeStatus::kFrame) << "seed " << seed;
  }
}

TEST(NetProtocol, BadOpcodeAndFlagsFatal) {
  RequestFrame f;
  f.opcode = Opcode::kPut;
  f.key = {'k'};
  Bytes stream;
  encode_request(f, &stream);

  auto patch_and_fix_crc = [](Bytes frame, std::size_t off,
                              std::uint8_t val) {
    frame[off] = val;
    const std::uint32_t crc = crc32(ByteSpan(frame.data(), 28));
    put_u32(MutByteSpan(frame.data(), frame.size()), 28, crc);
    return frame;
  };

  ResponseFrame resp;
  resp.opcode = Opcode::kGet;
  Bytes resp_stream;
  encode_response(resp, &resp_stream);

  // 4 = the retired one-shot ITER, a gap in the range; 9 = one past
  // kIterClose, the highest assigned opcode.
  for (const std::uint8_t bad_op : {std::uint8_t{0}, std::uint8_t{4},
                                    std::uint8_t{9}, std::uint8_t{255}}) {
    const Bytes bad = patch_and_fix_crc(stream, 4, bad_op);
    RequestDecoder dec;
    dec.feed(ByteSpan(bad));
    RequestFrame out;
    EXPECT_EQ(dec.next(&out), DecodeStatus::kBadFrame) << int(bad_op);

    Bytes bad_resp = resp_stream;
    bad_resp[4] = bad_op;
    put_u32(MutByteSpan(bad_resp.data(), bad_resp.size()), 24,
            crc32(ByteSpan(bad_resp.data(), 24)));
    ResponseDecoder rdec;
    rdec.feed(ByteSpan(bad_resp));
    ResponseFrame rout;
    EXPECT_EQ(rdec.next(&rout), DecodeStatus::kBadFrame) << int(bad_op);
  }
  const Bytes bad_flags = patch_and_fix_crc(stream, 5, 1);
  RequestDecoder dec;
  dec.feed(ByteSpan(bad_flags));
  RequestFrame out;
  EXPECT_EQ(dec.next(&out), DecodeStatus::kBadFrame);
}

TEST(NetProtocol, KeyListRoundTripAndStrictness) {
  const std::uint64_t seed = test::harness_seed(0x11575EEDull);
  std::mt19937_64 rng(seed);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::string> keys(rng() % 40);
    for (auto& k : keys) {
      k.resize(rng() % 64);
      for (auto& c : k) c = static_cast<char>(rng());
    }
    Bytes payload;
    encode_key_list(keys, &payload);
    std::vector<std::string> back;
    ASSERT_TRUE(decode_key_list(ByteSpan(payload),
                                static_cast<std::uint32_t>(keys.size()),
                                &back))
        << "seed " << seed;
    EXPECT_EQ(back, keys) << "seed " << seed;

    if (!payload.empty()) {
      // Truncated payload, wrong count, and trailing junk all fail.
      EXPECT_FALSE(decode_key_list(
          ByteSpan(payload.data(), payload.size() - 1),
          static_cast<std::uint32_t>(keys.size()), &back));
      EXPECT_FALSE(decode_key_list(
          ByteSpan(payload),
          static_cast<std::uint32_t>(keys.size()) + 1, &back));
      Bytes padded = payload;
      padded.push_back(0);
      EXPECT_FALSE(decode_key_list(
          ByteSpan(padded), static_cast<std::uint32_t>(keys.size()), &back));
    }
  }
}

}  // namespace
}  // namespace rhik::net
