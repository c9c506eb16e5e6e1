#include "net/protocol.hpp"

#include <algorithm>
#include <cstring>

#include "common/crc32.hpp"

namespace rhik::net {

const char* to_string(Opcode op) noexcept {
  switch (op) {
    case Opcode::kPut: return "PUT";
    case Opcode::kGet: return "GET";
    case Opcode::kDel: return "DEL";
    case Opcode::kStatus: return "STATUS";
    case Opcode::kIterOpen: return "ITER_OPEN";
    case Opcode::kIterNext: return "ITER_NEXT";
    case Opcode::kIterClose: return "ITER_CLOSE";
  }
  return "UNKNOWN";
}

namespace {

constexpr std::uint8_t kMaxOpcode =
    static_cast<std::uint8_t>(Opcode::kIterClose);
/// The retired one-shot ITER: a gap inside [1, kMaxOpcode].
constexpr std::uint8_t kRetiredIter = 4;

constexpr bool known_opcode(std::uint8_t b) noexcept {
  return b != 0 && b <= kMaxOpcode && b != kRetiredIter;
}

constexpr std::uint8_t kMaxResult =
    static_cast<std::uint8_t>(api::KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD);

void append(Bytes* out, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out->insert(out->end(), p, p + n);
}

}  // namespace

void encode_request(const RequestFrame& f, Bytes* out) {
  std::uint8_t hdr[kRequestHeaderSize];
  MutByteSpan h(hdr);
  put_u32(h, 0, kRequestMagic);
  hdr[4] = static_cast<std::uint8_t>(f.opcode);
  hdr[5] = 0;  // flags (reserved)
  put_u16(h, 6, static_cast<std::uint16_t>(f.key.size()));
  put_u32(h, 8, static_cast<std::uint32_t>(f.value.size()));
  put_u32(h, 12, f.tenant_id);
  put_u64(h, 16, f.request_id);
  put_u32(h, 24, f.limit);
  put_u32(h, 28, crc32(ByteSpan(hdr, 28)));
  append(out, hdr, sizeof hdr);
  append(out, f.key.data(), f.key.size());
  append(out, f.value.data(), f.value.size());
}

void encode_response(const ResponseFrame& f, Bytes* out) {
  std::uint8_t hdr[kResponseHeaderSize];
  MutByteSpan h(hdr);
  put_u32(h, 0, kResponseMagic);
  hdr[4] = static_cast<std::uint8_t>(f.opcode);
  hdr[5] = static_cast<std::uint8_t>(f.status);
  put_u16(h, 6, 0);
  put_u64(h, 8, f.request_id);
  put_u32(h, 16, static_cast<std::uint32_t>(f.value.size()));
  put_u32(h, 20, f.extra);
  put_u32(h, 24, crc32(ByteSpan(hdr, 24)));
  append(out, hdr, sizeof hdr);
  append(out, f.value.data(), f.value.size());
}

namespace detail {

void FrameBuffer::feed(ByteSpan data) {
  // Compact before growing once the dead prefix dominates, so steady-
  // state pipelining reuses one allocation instead of creeping forever.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void FrameBuffer::consume(std::size_t n) {
  pos_ += n;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
}

}  // namespace detail

DecodeStatus RequestDecoder::next(RequestFrame* out) {
  if (poisoned_) return DecodeStatus::kBadFrame;
  const ByteSpan b = buf_.view();
  if (b.size() < kRequestHeaderSize) return DecodeStatus::kNeedMore;
  DecodeStatus err = DecodeStatus::kFrame;
  if (get_u32(b, 0) != kRequestMagic) {
    err = DecodeStatus::kBadMagic;
  } else if (get_u32(b, 28) != crc32(b.first(28))) {
    err = DecodeStatus::kBadCrc;
  } else if (!known_opcode(b[4]) || b[5] != 0) {
    err = DecodeStatus::kBadFrame;
  }
  if (err != DecodeStatus::kFrame) {
    poisoned_ = true;
    return err;
  }
  const std::size_t key_len = get_u16(b, 6);
  const std::size_t value_len = get_u32(b, 8);
  // Length checks happen before waiting for the body: an oversized
  // declaration is rejected immediately, not after buffering megabytes.
  if (key_len > limits_.max_key_len || value_len > limits_.max_value_len) {
    poisoned_ = true;
    return DecodeStatus::kTooLarge;
  }
  const std::size_t total = kRequestHeaderSize + key_len + value_len;
  if (b.size() < total) return DecodeStatus::kNeedMore;
  out->opcode = static_cast<Opcode>(b[4]);
  out->tenant_id = get_u32(b, 12);
  out->request_id = get_u64(b, 16);
  out->limit = get_u32(b, 24);
  out->key.assign(b.begin() + kRequestHeaderSize,
                  b.begin() + kRequestHeaderSize + key_len);
  out->value.assign(b.begin() + kRequestHeaderSize + key_len,
                    b.begin() + total);
  buf_.consume(total);
  return DecodeStatus::kFrame;
}

DecodeStatus ResponseDecoder::next(ResponseFrame* out) {
  if (poisoned_) return DecodeStatus::kBadFrame;
  const ByteSpan b = buf_.view();
  if (b.size() < kResponseHeaderSize) return DecodeStatus::kNeedMore;
  DecodeStatus err = DecodeStatus::kFrame;
  if (get_u32(b, 0) != kResponseMagic) {
    err = DecodeStatus::kBadMagic;
  } else if (get_u32(b, 24) != crc32(b.first(24))) {
    err = DecodeStatus::kBadCrc;
  } else if (!known_opcode(b[4]) || b[5] > kMaxResult) {
    err = DecodeStatus::kBadFrame;
  }
  if (err != DecodeStatus::kFrame) {
    poisoned_ = true;
    return err;
  }
  const std::size_t value_len = get_u32(b, 16);
  // Responses carry scan key lists and STATUS JSON, which legitimately
  // exceed a request's value ceiling; allow (max_key_len + 2) bytes per
  // key for up to max_iter_keys keys on top — the same limit the server
  // clamps its kIterNext responses to, so a valid frame is never rejected.
  if (value_len >
      limits_.max_value_len + (limits_.max_key_len + 2) * limits_.max_iter_keys) {
    poisoned_ = true;
    return DecodeStatus::kTooLarge;
  }
  const std::size_t total = kResponseHeaderSize + value_len;
  if (b.size() < total) return DecodeStatus::kNeedMore;
  out->opcode = static_cast<Opcode>(b[4]);
  out->status = static_cast<api::KvsResult>(b[5]);
  out->request_id = get_u64(b, 8);
  out->extra = get_u32(b, 20);
  out->value.assign(b.begin() + kResponseHeaderSize, b.begin() + total);
  buf_.consume(total);
  return DecodeStatus::kFrame;
}

void encode_key_list(const std::vector<std::string>& keys, Bytes* out) {
  std::size_t need = 0;
  for (const auto& k : keys) need += 2 + k.size();
  out->reserve(out->size() + need);
  for (const auto& k : keys) {
    std::uint8_t len[2];
    put_u16(MutByteSpan(len), 0, static_cast<std::uint16_t>(k.size()));
    append(out, len, 2);
    append(out, k.data(), k.size());
  }
}

void encode_iter_token(const IterToken& t, Bytes* out) {
  std::uint8_t buf[kIterTokenSize];
  MutByteSpan b(buf);
  put_u64(b, 0, t.cursor_id);
  put_u64(b, 8, t.epoch);
  append(out, buf, sizeof buf);
}

bool decode_iter_token(ByteSpan payload, IterToken* out) {
  if (payload.size() != kIterTokenSize) return false;
  out->cursor_id = get_u64(payload, 0);
  out->epoch = get_u64(payload, 8);
  return true;
}

bool decode_key_list(ByteSpan payload, std::uint32_t count,
                     std::vector<std::string>* keys_out) {
  keys_out->clear();
  keys_out->reserve(count);
  std::size_t off = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (off + 2 > payload.size()) return false;
    const std::size_t len = get_u16(payload, off);
    off += 2;
    if (off + len > payload.size()) return false;
    keys_out->emplace_back(reinterpret_cast<const char*>(payload.data() + off),
                           len);
    off += len;
  }
  return off == payload.size();
}

}  // namespace rhik::net
