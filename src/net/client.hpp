// net::KvClient — client library for the serving layer (DESIGN.md §12).
//
// A thin blocking TCP client over the wire protocol (net/protocol.hpp)
// with two usage styles:
//
//   * Blocking verbs (put/get/del/iterate/status_json): encode one
//     request, send, and wait for the matching response. Responses for
//     other outstanding pipelined requests that arrive first are
//     stashed, never dropped — mixing styles on one connection is safe.
//
//   * Pipelining: submit_put/submit_get/submit_del batch encoded frames
//     into one buffer; flush() pushes the batch in a single write;
//     recv_response() blocks for the next response frame in arrival
//     order (which is NOT submission order — match on request_id), and
//     wait_for(id) blocks until one specific request is answered.
//
// One KvClient is one connection and is not thread-safe; clients that
// want concurrency open more connections (that is the serving model the
// bench exercises).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/kvs.hpp"
#include "net/protocol.hpp"

namespace rhik::net {

class KvClient {
 public:
  struct Options {
    std::uint32_t tenant_id = 0;
    WireLimits limits{};
  };

  KvClient() : KvClient(Options{}) {}
  explicit KvClient(Options opts) : opts_(opts), decoder_(opts.limits) {}
  ~KvClient() { close(); }

  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;
  KvClient(KvClient&& other) noexcept
      : opts_(other.opts_),
        fd_(other.fd_),
        next_id_(other.next_id_),
        pending_(std::move(other.pending_)),
        decoder_(std::move(other.decoder_)),
        stash_(std::move(other.stash_)) {
    other.fd_ = -1;
  }
  KvClient& operator=(KvClient&&) = delete;

  /// Connects (blocking) to host:port. kIoError on failure.
  Status connect(const std::string& host, std::uint16_t port);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  // -- Blocking verbs ---------------------------------------------------------
  api::KvsResult put(std::string_view key, std::string_view value);
  api::KvsResult get(std::string_view key, Bytes* value_out);
  api::KvsResult del(std::string_view key);
  /// Prefix scan within this client's tenant namespace; limit 0 = no
  /// cap. Keys come back sorted, so the order does not depend on the
  /// server's shard count. Implemented over the cursored verbs below, so
  /// the whole scan is one consistent snapshot and never truncates at
  /// the server's per-response ceiling.
  api::KvsResult iterate(std::string_view prefix, std::uint32_t limit,
                         std::vector<std::string>* keys_out);

  // -- Cursored scans (ITER_OPEN / ITER_NEXT / ITER_CLOSE) --------------------
  /// Opens a server-side cursor over `prefix`, pinned to one snapshot
  /// epoch for its whole lifetime. The continuation token identifies the
  /// cursor in iter_next/iter_close. Cursors are per-connection state:
  /// they die with the connection (the server reaps them), but close
  /// promptly — an open cursor pins device version retention.
  api::KvsResult iter_open(std::string_view prefix, IterToken* token_out);
  /// Streams up to `limit` further keys (0 = server batch ceiling) into
  /// `keys_out` (replaced). KVS_SUCCESS while keys remain;
  /// KVS_ERR_KEY_NOT_EXIST once exhausted (cursor stays open);
  /// KVS_ERR_SNAPSHOT_TOO_OLD when the pinned epoch fell out of
  /// retention mid-scan — reopen and restart.
  api::KvsResult iter_next(const IterToken& token, std::uint32_t limit,
                           std::vector<std::string>* keys_out);
  /// Releases the cursor and its snapshot pin.
  api::KvsResult iter_close(const IterToken& token);
  /// Server metrics snapshot as JSON (the kStatus opcode).
  api::KvsResult status_json(std::string* json_out);

  // -- Pipelining -------------------------------------------------------------
  /// Encode into the pending batch; returns the request id to match the
  /// response with. Nothing hits the socket until flush(). Returns 0
  /// (never a valid id) without encoding anything when the key/value
  /// exceed the wire limits or header field widths — an unframeable
  /// request must fail per-call, not desync the stream.
  std::uint64_t submit_put(std::string_view key, std::string_view value);
  std::uint64_t submit_get(std::string_view key);
  std::uint64_t submit_del(std::string_view key);
  /// Sends the whole pending batch (one buffer, minimal syscalls).
  Status flush();
  /// Blocks for the next response frame, in arrival order. Consumes the
  /// stash first. kIoError on EOF/socket error or protocol violation.
  Status recv_response(ResponseFrame* out);
  /// Blocks until the response for `request_id` arrives, stashing any
  /// other responses that land first.
  Status wait_for(std::uint64_t request_id, ResponseFrame* out);
  /// Responses received but not yet consumed by wait_for().
  [[nodiscard]] std::size_t stashed() const noexcept { return stash_.size(); }

  [[nodiscard]] std::uint32_t tenant_id() const noexcept {
    return opts_.tenant_id;
  }

 private:
  /// Client-side wire validation: KVS_ERR_KEY/VALUE_LENGTH_INVALID when
  /// the request cannot be framed (WireLimits or the u16 key-len / u32
  /// value-len header fields would overflow), else KVS_SUCCESS.
  [[nodiscard]] api::KvsResult validate_frame(
      std::string_view key, std::string_view value) const noexcept;
  std::uint64_t encode_pending(Opcode op, std::string_view key,
                               std::string_view value, std::uint32_t limit);
  Status send_all(const std::uint8_t* data, std::size_t n);
  /// One send-and-wait round trip for the blocking verbs.
  Status round_trip(Opcode op, std::string_view key, std::string_view value,
                    std::uint32_t limit, ResponseFrame* out);

  Options opts_;
  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  Bytes pending_;
  ResponseDecoder decoder_;
  std::unordered_map<std::uint64_t, ResponseFrame> stash_;
};

}  // namespace rhik::net
