// net::KvServer — the networked multi-tenant serving layer
// (DESIGN.md §12).
//
// A non-blocking epoll TCP front-end over one `api::KvsDevice`. One
// event-loop thread owns the listening socket and every client
// connection; each pass of the loop
//
//   1. drains its epoll: accepts, reads (decode → admission → dispatch
//      through the async verb set), writes back-pressured buffers;
//   2. harvests the device's batched completion ring
//      (api::KvsDevice::poll_completions) and routes each completion to
//      the connection that issued it;
//   3. when fully idle, pumps backend background maintenance
//      (IKvsBackend::pump_background) so GC quanta and incremental
//      index migrations keep progressing on a single-device backend
//      with no other thread (a sharded array's own workers already
//      pump in their ring-idle windows).
//
// The loop registers a command before it next harvests, so every
// completion it harvests finds its pending entry. No thread is ever
// parked per request: requests pipeline freely per connection, and a
// response goes out whenever the device completes the command —
// out-of-order responses are the contract (clients match by request id).
//
// Admission control is two-layer and never silent: a global in-flight
// cap plus a per-connection pipeline cap answer with the retryable
// KVS_ERR_QUEUE_FULL, and per-tenant token buckets (net/tenant.hpp) do
// the same for quota overruns. Every accepted request is answered
// exactly once; completions whose connection died are reaped and
// counted (net.orphaned_completions), never delivered twice.
//
// Server metrics (MetricsRegistry, exported via metrics_snapshot):
//   net.accepted / net.closed / net.connections (gauge)
//   net.rx_bytes / net.tx_bytes
//   net.requests / net.responses / net.inflight (gauge)
//   net.throttled / net.admission_rejects / net.decode_errors
//   net.orphaned_completions / net.idle_pumps
//   net.recv_calls / net.send_calls / net.loop_iters /
//   net.harvest_batches (syscall- and batching-efficiency ratios:
//   requests/recv_calls, responses/send_calls, responses/harvest_batches)
//   net.cursors_opened / net.cursors_reaped / net.cursors (gauge —
//   cursored scans open right now; reaped counts cursors a dying
//   connection abandoned, not clean ITER_CLOSEs)
//   net.tenant.<id>.{ops,bytes,throttled,latency_ns}
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/kvs.hpp"
#include "net/protocol.hpp"
#include "net/tenant.hpp"
#include "obs/metrics.hpp"

namespace rhik::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  /// Event-loop threads. Fixed at 1: one loop owns every connection,
  /// and start() answers kInvalidArgument for any other value.
  std::uint32_t num_workers = 1;
  /// Global admission cap: async commands in flight across the whole
  /// server. Above it, requests are answered KVS_ERR_QUEUE_FULL.
  std::size_t max_global_inflight = 16384;
  /// Per-connection pipeline cap (same retryable rejection).
  std::size_t max_conn_inflight = 4096;
  /// Ceiling on keys in one kIterNext batch response.
  std::size_t max_iter_keys = 65536;
  /// Open scan cursors per connection (kIterOpen). Each cursor pins a
  /// snapshot epoch on the device, holding superseded versions alive,
  /// so the cap bounds how much retention one client can hold hostage.
  /// Above it, kIterOpen answers KVS_ERR_ITERATOR_MAX.
  std::size_t max_conn_cursors = 4;
  /// Unknown tenant ids get an unlimited namespace on first sight when
  /// true; otherwise they are answered KVS_ERR_OPTION_INVALID.
  bool allow_unknown_tenants = true;
  WireLimits limits{};
  /// epoll timeout while fully idle (nothing in flight, no background
  /// work). Bounds stop() latency; idle CPU is ~zero either way.
  int idle_timeout_ms = 20;
  /// Graceful-stop bound: after this long stop() force-closes whatever
  /// is still in flight instead of waiting forever.
  int drain_timeout_ms = 10000;
};

class KvServer {
 public:
  /// The server dispatches into `dev` via the async verb set. For a
  /// non-sharded device (no internal threading) every backend call is
  /// serialized behind an internal mutex, which orders device_metrics()
  /// callers against the loop; a sharded backend's verbs are
  /// thread-safe already.
  KvServer(api::KvsDevice& dev, ServerConfig cfg = {});
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Binds, listens and spawns the event loop. kIoError on socket
  /// failure; kInvalidArgument unless cfg.num_workers is 1.
  Status start();
  /// Graceful shutdown: stops accepting and reading, keeps harvesting
  /// completions until every in-flight command has been answered and
  /// every response buffer flushed (bounded by drain_timeout_ms), then
  /// closes all sockets and joins the loop. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_.load(); }
  /// Bound port (after start(); the ephemeral port when cfg.port == 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  [[nodiscard]] TenantTable& tenants() noexcept { return tenants_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// Snapshot of the server-side registry (net.* metrics). Device-side
  /// metrics stay on dev.metrics_snapshot() — merging implies a
  /// cross-shard barrier the serving layer should not hide.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const {
    return metrics_.snapshot();
  }
  /// Device-side metrics, read under the backend serialization lock.
  /// While the loop runs, dev.metrics_snapshot() from another thread races
  /// whatever request or disconnect-reap is mid-flight (the sim clock is
  /// not atomic); this is the safe way to poll the device from outside.
  [[nodiscard]] obs::MetricsSnapshot device_metrics();

  /// Wall-clock monotonic ns (the serving layer's time domain).
  [[nodiscard]] static std::uint64_t wall_now_ns() noexcept;

 private:
  /// One open cursored scan (kIterOpen): a backend iterator handle plus
  /// the snapshot pin it reads at. Owned by the connection (reaped on
  /// close) and by the tenant that opened it (tokens are rejected
  /// across tenants).
  struct Cursor {
    std::uint64_t backend_iter = 0;
    api::SnapshotHandle snap{};
    std::uint32_t tenant = 0;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    RequestDecoder decoder;
    Bytes out;                 ///< encoded responses awaiting write
    std::size_t out_pos = 0;   ///< already-written prefix of `out`
    std::size_t inflight = 0;  ///< async commands not yet answered
    bool want_write = false;   ///< EPOLLOUT armed
    bool read_closed = false;  ///< peer EOF or stop(): no more requests
    std::unordered_map<std::uint64_t, Cursor> cursors;  ///< open scans
    std::uint64_t next_cursor_id = 1;
    explicit Conn(WireLimits limits) : decoder(limits) {}
  };

  /// One submitted-but-unanswered command.
  struct Pending {
    std::uint64_t conn_id = 0;
    std::uint64_t request_id = 0;
    Opcode opcode = Opcode::kPut;
    std::uint32_t tenant = 0;
    std::uint64_t t0_ns = 0;       ///< dispatch wall time (latency metric)
    std::uint64_t req_bytes = 0;   ///< key+value bytes in (tenant accounting)
  };

  void loop_main();
  void accept_ready();
  void adopt_conn(int fd);
  void close_conn(Conn& c);
  void read_ready(Conn& c);
  /// Encodes `resp` onto the connection and tries to flush.
  void send_response(Conn& c, const ResponseFrame& resp);
  /// Encode only — callers batching many responses flush the touched
  /// connections once (one send syscall per harvest, not per response).
  void enqueue_response(Conn& c, const ResponseFrame& resp);
  void flush_out(Conn& c);
  /// flush_out for each distinct id in `touched` that still exists.
  void flush_touched(std::vector<std::uint64_t>& touched);
  void update_write_interest(Conn& c);
  void handle_request(Conn& c, RequestFrame&& f);
  /// kIterOpen / kIterNext / kIterClose (the cursored scan verbs).
  void handle_cursor_op(Conn& c, RequestFrame& f, Tenant& tenant,
                        std::uint64_t now_ns);
  /// Closes every backend iterator the connection still holds and
  /// releases their snapshot pins (connection close / server teardown) —
  /// an abandoned cursor must not pin retention forever.
  void reap_cursors(Conn& c);
  /// Immediate (non-device) answer: throttles, validation errors,
  /// cursor and STATUS results.
  void respond_now(Conn& c, const RequestFrame& f, api::KvsResult result,
                   Bytes&& value = {}, std::uint32_t extra = 0);
  /// Harvests the completion ring and routes completions; returns how
  /// many were handled.
  std::size_t harvest_completions();
  /// Routes one completion: appends its response without flushing and
  /// pushes its conn id onto `touched`.
  void route_completion(const Pending& p, api::KvsCompletion&& c,
                        std::vector<std::uint64_t>* touched);
  void wake();
  /// Closes the listening socket, epoll fd and eventfd that are open.
  void close_fds();

  api::KvsDevice& dev_;
  ServerConfig cfg_;
  /// Serializes backend access for a non-sharded device (the emulated
  /// device is single-threaded). Unused when dev_.sharded().
  std::mutex backend_mu_;
  const bool serialize_backend_;

  int listen_fd_ = -1;
  int epfd_ = -1;
  int event_fd_ = -1;  ///< stop and completion-notify wakeup
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  // Owned by the loop thread (stop() resets them after joining it).
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::size_t inflight_total_ = 0;
  std::uint64_t next_conn_id_;

  obs::MetricsRegistry metrics_;
  TenantTable tenants_;
  obs::Counter* m_accepted_;
  obs::Counter* m_closed_;
  obs::Counter* m_rx_bytes_;
  obs::Counter* m_tx_bytes_;
  obs::Counter* m_requests_;
  obs::Counter* m_responses_;
  obs::Counter* m_throttled_;
  obs::Counter* m_admission_rejects_;
  obs::Counter* m_decode_errors_;
  obs::Counter* m_orphaned_;
  obs::Counter* m_idle_pumps_;
  obs::Counter* m_recv_calls_;
  obs::Counter* m_send_calls_;
  obs::Counter* m_loop_iters_;
  obs::Counter* m_harvest_batches_;
  obs::Counter* m_cursors_opened_;
  obs::Counter* m_cursors_reaped_;
  obs::Gauge* m_connections_;
  obs::Gauge* m_inflight_;
  obs::Gauge* m_cursors_;
  std::thread loop_;
};

}  // namespace rhik::net
