// Wire protocol of the serving layer (DESIGN.md §12).
//
// Length-prefixed binary frames over TCP, little-endian like every other
// codec in the repo (common/bytes.hpp). A connection carries a stream of
// pipelined request frames client→server and a stream of response frames
// server→client; responses are matched to requests by the echoed 64-bit
// request id, NOT by order — the server completes commands as the device
// finishes them, so a pipelined client must not assume FIFO.
//
// Request frame (32-byte header + key bytes + value bytes):
//
//   off size field
//   0   4    magic "RKV1"
//   4   1    opcode (Opcode)
//   5   1    flags (must be 0 — reserved)
//   6   2    key_len
//   8   4    value_len
//   12  4    tenant_id    (namespace + quota selector, DESIGN.md §12)
//   16  8    request_id   (echoed verbatim in the response)
//   24  4    limit        (kIterNext: max keys; 0 elsewhere)
//   28  4    crc32 over header bytes [0, 28)
//
// Response frame (28-byte header + value bytes):
//
//   off size field
//   0   4    magic "RKR1"
//   4   1    opcode (echoed)
//   5   1    status (api::KvsResult)
//   6   2    reserved (0)
//   8   8    request_id
//   16  4    value_len
//   20  4    extra        (kIterNext: number of keys in the payload)
//   24  4    crc32 over header bytes [0, 24)
//
// The header CRC makes framing self-validating: a corrupted or
// misaligned stream fails magic/CRC checks instead of being parsed into
// a garbage frame, and the decoder reports a connection-fatal error (the
// stream cannot be resynchronized once framing is untrusted). Payload
// integrity is TCP's job; the CRC protects the *lengths* the decoder is
// about to trust.
//
// kIterNext response payloads are a key list: `extra` entries of
// [u16 len][len key bytes], concatenated (encode_key_list /
// decode_key_list).
//
// Prefix scans are cursored (kIterOpen / kIterNext / kIterClose): they
// stream the whole prefix in bounded batches pinned to ONE snapshot
// epoch. Opcode 4, the retired one-shot ITER, is rejected by both
// decoders like any unknown opcode.
//   kIterOpen:  request key = prefix; response value = 16-byte
//               continuation token (IterToken: [cursor_id u64][epoch
//               u64] — the epoch the server pinned for the cursor).
//   kIterNext:  request value = the token, limit = max keys this batch;
//               response = key list (`extra` keys) while keys remain,
//               KVS_ERR_KEY_NOT_EXIST once exhausted (the cursor stays
//               open until kIterClose), KVS_ERR_SNAPSHOT_TOO_OLD when
//               the pinned epoch fell out of version retention.
//   kIterClose: request value = the token; releases the cursor and its
//               snapshot pin.
// Cursors are per-connection server state, owned by the tenant that
// opened them (a token is rejected across tenants) and reaped when the
// connection closes — an abandoned cursor never pins an epoch forever.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/kvs.hpp"
#include "common/bytes.hpp"

namespace rhik::net {

enum class Opcode : std::uint8_t {
  kPut = 1,
  kGet = 2,
  kDel = 3,
  // 4: retired (one-shot ITER); decoders answer it with kBadFrame.
  kStatus = 5,     ///< server metrics snapshot; response value = JSON
  kIterOpen = 6,   ///< open cursor; key = prefix, response = IterToken
  kIterNext = 7,   ///< value = IterToken, limit = batch; response = keys
  kIterClose = 8,  ///< value = IterToken; releases cursor + pin
};

[[nodiscard]] const char* to_string(Opcode op) noexcept;

constexpr std::uint32_t kRequestMagic = 0x31564B52u;   // "RKV1"
constexpr std::uint32_t kResponseMagic = 0x31524B52u;  // "RKR1"
constexpr std::size_t kRequestHeaderSize = 32;
constexpr std::size_t kResponseHeaderSize = 28;

/// Decoder-enforced frame-size ceilings. Anything larger is treated as a
/// framing error (connection-fatal), independent of what the backend
/// would accept for the key/value.
struct WireLimits {
  std::size_t max_key_len = 1024;
  std::size_t max_value_len = 4u << 20;
  /// Ceiling on keys in one kIterNext response payload. The response
  /// decoder derives its kTooLarge cap from this, so client and server
  /// must agree on it (the server clamps ServerConfig::max_iter_keys to
  /// this value when building kIterNext responses).
  std::size_t max_iter_keys = 65536;
};

struct RequestFrame {
  Opcode opcode = Opcode::kPut;
  std::uint32_t tenant_id = 0;
  std::uint64_t request_id = 0;
  std::uint32_t limit = 0;  ///< kIterNext only
  Bytes key;
  Bytes value;
};

struct ResponseFrame {
  Opcode opcode = Opcode::kPut;
  api::KvsResult status = api::KvsResult::KVS_SUCCESS;
  std::uint64_t request_id = 0;
  std::uint32_t extra = 0;  ///< kIterNext: key count in `value`
  Bytes value;
};

/// Appends the encoded frame to `out` (so many frames batch into one
/// buffer = one write syscall when pipelining).
void encode_request(const RequestFrame& f, Bytes* out);
void encode_response(const ResponseFrame& f, Bytes* out);

enum class DecodeStatus : std::uint8_t {
  kFrame = 0,   ///< one frame produced
  kNeedMore,    ///< partial frame buffered; feed more bytes
  kBadMagic,    ///< stream is not frame-aligned — connection-fatal
  kBadCrc,      ///< header corrupted — connection-fatal
  kBadFrame,    ///< unknown opcode / status / nonzero flags — fatal
  kTooLarge,    ///< declared lengths exceed WireLimits — fatal
};

[[nodiscard]] constexpr bool decode_fatal(DecodeStatus s) noexcept {
  return s != DecodeStatus::kFrame && s != DecodeStatus::kNeedMore;
}

namespace detail {
/// Incremental frame assembly shared by both decoders: buffers fed
/// bytes, compacts lazily, and hands complete frames to the typed
/// parsers below.
class FrameBuffer {
 public:
  void feed(ByteSpan data);
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buf_.size() - pos_;
  }
  [[nodiscard]] ByteSpan view() const noexcept {
    return ByteSpan(buf_).subspan(pos_);
  }
  void consume(std::size_t n);

 private:
  Bytes buf_;
  std::size_t pos_ = 0;
};
}  // namespace detail

/// Incremental request decoder (server side). feed() whatever recv()
/// produced, then call next() until it stops returning kFrame. Any
/// fatal status poisons the decoder — the connection must be closed.
class RequestDecoder {
 public:
  explicit RequestDecoder(WireLimits limits = {}) : limits_(limits) {}
  void feed(ByteSpan data) { buf_.feed(data); }
  DecodeStatus next(RequestFrame* out);

 private:
  WireLimits limits_;
  detail::FrameBuffer buf_;
  bool poisoned_ = false;
};

/// Incremental response decoder (client side).
class ResponseDecoder {
 public:
  explicit ResponseDecoder(WireLimits limits = {}) : limits_(limits) {}
  void feed(ByteSpan data) { buf_.feed(data); }
  DecodeStatus next(ResponseFrame* out);

 private:
  WireLimits limits_;
  detail::FrameBuffer buf_;
  bool poisoned_ = false;
};

/// kIterNext payload codec: `extra` entries of
/// [u16 len][key bytes].
void encode_key_list(const std::vector<std::string>& keys, Bytes* out);
/// Strict decode: every byte must be consumed and exactly `count`
/// entries present, else false (payload treated as corrupt).
[[nodiscard]] bool decode_key_list(ByteSpan payload, std::uint32_t count,
                                   std::vector<std::string>* keys_out);

/// Continuation token of a cursored scan: returned by kIterOpen, echoed
/// verbatim in every kIterNext / kIterClose. `cursor_id` names the
/// server-side cursor; `epoch` is the snapshot epoch the cursor pinned
/// (diagnostics — the server validates the id, the device validates the
/// pin).
struct IterToken {
  std::uint64_t cursor_id = 0;
  std::uint64_t epoch = 0;
};

constexpr std::size_t kIterTokenSize = 16;

/// Appends the 16-byte token encoding to `out`.
void encode_iter_token(const IterToken& t, Bytes* out);
/// Strict decode: exactly kIterTokenSize bytes, else false.
[[nodiscard]] bool decode_iter_token(ByteSpan payload, IterToken* out);

}  // namespace rhik::net
