#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "kvssd/config.hpp"

namespace rhik::net {

namespace {

/// epoll user-data tags below the first connection id.
constexpr std::uint64_t kTagListen = 0;
constexpr std::uint64_t kTagEvent = 1;
constexpr std::uint64_t kFirstConnId = 2;

std::string_view as_sv(const Bytes& b) noexcept {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace

std::uint64_t KvServer::wall_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

obs::MetricsSnapshot KvServer::device_metrics() {
  std::unique_lock<std::mutex> lk(backend_mu_, std::defer_lock);
  if (serialize_backend_) lk.lock();
  return dev_.metrics_snapshot();
}

KvServer::KvServer(api::KvsDevice& dev, ServerConfig cfg)
    : dev_(dev),
      cfg_(std::move(cfg)),
      serialize_backend_(!dev.sharded()),
      next_conn_id_(kFirstConnId),
      tenants_(metrics_) {
  m_accepted_ = &metrics_.counter("net.accepted");
  m_closed_ = &metrics_.counter("net.closed");
  m_rx_bytes_ = &metrics_.counter("net.rx_bytes");
  m_tx_bytes_ = &metrics_.counter("net.tx_bytes");
  m_requests_ = &metrics_.counter("net.requests");
  m_responses_ = &metrics_.counter("net.responses");
  m_throttled_ = &metrics_.counter("net.throttled");
  m_admission_rejects_ = &metrics_.counter("net.admission_rejects");
  m_decode_errors_ = &metrics_.counter("net.decode_errors");
  m_orphaned_ = &metrics_.counter("net.orphaned_completions");
  m_idle_pumps_ = &metrics_.counter("net.idle_pumps");
  m_recv_calls_ = &metrics_.counter("net.recv_calls");
  m_send_calls_ = &metrics_.counter("net.send_calls");
  m_loop_iters_ = &metrics_.counter("net.loop_iters");
  m_harvest_batches_ = &metrics_.counter("net.harvest_batches");
  m_cursors_opened_ = &metrics_.counter("net.cursors_opened");
  m_cursors_reaped_ = &metrics_.counter("net.cursors_reaped");
  m_connections_ = &metrics_.gauge("net.connections");
  m_inflight_ = &metrics_.gauge("net.inflight");
  m_cursors_ = &metrics_.gauge("net.cursors");
}

KvServer::~KvServer() { stop(); }

void KvServer::close_fds() {
  for (int* fd : {&listen_fd_, &epfd_, &event_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

Status KvServer::start() {
  if (running_.load()) return Status::kAlreadyExists;
  if (cfg_.num_workers != 1) return Status::kInvalidArgument;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::kIoError;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(listen_fd_, 1024) < 0) {
    close_fds();
    return Status::kIoError;
  }
  socklen_t alen = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);

  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epfd_ < 0 || event_fd_ < 0) {
    close_fds();  // no descriptor survives a partial start
    return Status::kIoError;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kTagEvent;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, event_fd_, &ev);
  ev.data.u64 = kTagListen;
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  draining_.store(false);
  running_.store(true);
  loop_ = std::thread([this] { loop_main(); });
  // Completion batches land on the ring from shard worker threads; an
  // eventfd kick per batch replaces timer-polling the ring. (On a
  // non-sharded device completions only appear when the loop drives the
  // queue itself, so the self-wake is harmless.)
  dev_.set_completion_notify([this] { wake(); });
  return Status::kOk;
}

void KvServer::stop() {
  if (!loop_.joinable()) return;
  draining_.store(true);
  running_.store(false);
  wake();
  loop_.join();
  // Straggler completions (commands orphaned past the drain deadline)
  // may still fire the notify from shard workers: detach it before the
  // eventfd it writes to is closed.
  dev_.set_completion_notify(nullptr);
  close_fds();
  // Anything still registered here belonged to connections the loop
  // force-closed at the drain deadline.
  pending_.clear();
  inflight_total_ = 0;
  draining_.store(false);
}

void KvServer::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(event_fd_, &one, sizeof one);
}

void KvServer::loop_main() {
  std::vector<epoll_event> events(512);
  std::uint64_t drain_deadline_ns = 0;
  bool pumping = false;
  for (;;) {
    const bool stopping = draining_.load(std::memory_order_relaxed);
    int timeout = cfg_.idle_timeout_ms;
    if (stopping) {
      timeout = 1;
    } else if (pumping || (serialize_backend_ && inflight_total_ > 0)) {
      // A non-sharded device completes work only when this loop drives
      // it, so keep driving. A sharded backend's completion batches
      // arrive via the eventfd notify — block normally.
      timeout = 0;
    }
    const int n = ::epoll_wait(epfd_, events.data(),
                               static_cast<int>(events.size()), timeout);
    m_loop_iters_->inc();
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[static_cast<std::size_t>(i)];
      if (ev.data.u64 == kTagListen) {
        accept_ready();
        continue;
      }
      if (ev.data.u64 == kTagEvent) {
        std::uint64_t buf;
        while (::read(event_fd_, &buf, sizeof buf) > 0) {
        }
        continue;
      }
      auto it = conns_.find(ev.data.u64);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& c = *it->second;
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        close_conn(c);
        continue;
      }
      if ((ev.events & EPOLLIN) && !c.read_closed) {
        read_ready(c);
        // read_ready may close the connection; re-check before EPOLLOUT.
        if (conns_.find(ev.data.u64) == conns_.end()) continue;
      }
      if (ev.events & EPOLLOUT) flush_out(c);
    }

    const std::size_t done = harvest_completions();

    if (stopping) {
      const std::uint64_t now = wall_now_ns();
      if (drain_deadline_ns == 0) {
        drain_deadline_ns =
            now + static_cast<std::uint64_t>(cfg_.drain_timeout_ms) * 1'000'000;
        // No further requests: stop reading everywhere, keep writing.
        for (auto& [id, conn] : conns_) {
          conn->read_closed = true;
          update_write_interest(*conn);
        }
      }
      bool flushed = true;
      for (auto& [id, conn] : conns_) {
        if (conn->out_pos < conn->out.size()) flushed = false;
      }
      if ((pending_.empty() && flushed) || now > drain_deadline_ns) break;
      continue;
    }

    // Fully idle: let the backend make background progress (GC quanta,
    // incremental index migration). A sharded array reports false here —
    // its own workers pump whenever their rings go idle.
    if (n == 0 && done == 0 && inflight_total_ == 0) {
      bool worked;
      if (serialize_backend_) {
        std::lock_guard lk(backend_mu_);
        worked = dev_.backend().pump_background();
      } else {
        worked = dev_.backend().pump_background();
      }
      if (worked) m_idle_pumps_->inc();
      pumping = worked;
    } else {
      pumping = false;
    }
  }
  // Loop teardown: close whatever is left (drained or past deadline).
  for (auto& [id, conn] : conns_) {
    reap_cursors(*conn);
    ::close(conn->fd);
    m_closed_->inc();
    m_connections_->add(-1);
  }
  conns_.clear();
}

void KvServer::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: back to epoll
    if (draining_.load(std::memory_order_relaxed)) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    adopt_conn(fd);
  }
}

void KvServer::adopt_conn(int fd) {
  auto c = std::make_unique<Conn>(cfg_.limits);
  c->fd = fd;
  c->id = next_conn_id_++;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c->id;
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    return;
  }
  m_accepted_->inc();
  m_connections_->add(1);
  conns_.emplace(c->id, std::move(c));
}

void KvServer::reap_cursors(Conn& c) {
  if (c.cursors.empty()) return;
  std::unique_lock<std::mutex> lk(backend_mu_, std::defer_lock);
  if (serialize_backend_) lk.lock();
  for (auto& [id, cur] : c.cursors) {
    (void)dev_.kvs_close_iterator(cur.backend_iter);
    (void)dev_.release_snapshot(cur.snap);
    m_cursors_reaped_->inc();
    m_cursors_->add(-1);
  }
  c.cursors.clear();
}

void KvServer::close_conn(Conn& c) {
  // Idle-cursor reaping: a dying connection's scans release their
  // snapshot pins here, so an abandoned cursor never holds version
  // retention hostage.
  reap_cursors(c);
  // Pending completions for this connection stay registered; the
  // harvest finds the connection gone and reaps them as orphans —
  // reaped exactly once, delivered zero times.
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
  ::close(c.fd);
  m_closed_->inc();
  m_connections_->add(-1);
  conns_.erase(c.id);  // destroys c — callers must not touch it again
}

void KvServer::update_write_interest(Conn& c) {
  const bool want_write = c.out_pos < c.out.size();
  if (want_write == c.want_write && !c.read_closed) return;
  c.want_write = want_write;
  epoll_event ev{};
  ev.events = (c.read_closed ? 0u : static_cast<unsigned>(EPOLLIN)) |
              (want_write ? static_cast<unsigned>(EPOLLOUT) : 0u);
  ev.data.u64 = c.id;
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void KvServer::read_ready(Conn& c) {
  // handle_request can destroy `c` (a flush hitting EPIPE/ECONNRESET
  // closes the connection), so every post-dispatch liveness check must
  // use a saved id — reading c.id after the close is a use-after-free.
  const std::uint64_t conn_id = c.id;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
    m_recv_calls_->inc();
    if (r > 0) {
      m_rx_bytes_->inc(static_cast<std::uint64_t>(r));
      c.decoder.feed(ByteSpan(buf, static_cast<std::size_t>(r)));
      RequestFrame f;
      for (;;) {
        const DecodeStatus ds = c.decoder.next(&f);
        if (ds == DecodeStatus::kFrame) {
          handle_request(c, std::move(f));
          if (conns_.find(conn_id) == conns_.end()) return;  // closed
          continue;
        }
        if (ds == DecodeStatus::kNeedMore) break;
        // Framing is untrusted from here on: answer with a best-effort
        // error frame, then close. The raw send is only safe on an idle
        // stream — with a response partially flushed (out_pos mid-frame)
        // the error bytes would interleave mid-frame; just close then.
        m_decode_errors_->inc();
        if (c.out_pos >= c.out.size()) {
          ResponseFrame err;
          err.opcode = Opcode::kStatus;
          err.status = api::KvsResult::KVS_ERR_SYS_IO;
          Bytes enc;
          encode_response(err, &enc);
          [[maybe_unused]] const ssize_t sent =
              ::send(c.fd, enc.data(), enc.size(), MSG_NOSIGNAL);
        }
        close_conn(c);
        return;
      }
      if (r < static_cast<ssize_t>(sizeof buf)) return;  // drained socket
      continue;
    }
    if (r == 0) {
      // Peer finished sending. Keep the connection until every pipelined
      // response has been delivered (write side still open).
      c.read_closed = true;
      update_write_interest(c);
      if (c.inflight == 0 && c.out_pos >= c.out.size()) close_conn(c);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    close_conn(c);
    return;
  }
}

void KvServer::flush_out(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t s = ::send(c.fd, c.out.data() + c.out_pos,
                             c.out.size() - c.out_pos, MSG_NOSIGNAL);
    m_send_calls_->inc();
    if (s > 0) {
      m_tx_bytes_->inc(static_cast<std::uint64_t>(s));
      c.out_pos += static_cast<std::size_t>(s);
      continue;
    }
    if (s < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      update_write_interest(c);
      return;
    }
    if (s < 0 && errno == EINTR) continue;
    close_conn(c);  // EPIPE / ECONNRESET: peer died
    return;
  }
  c.out.clear();
  c.out_pos = 0;
  update_write_interest(c);
  if (c.read_closed && c.inflight == 0) close_conn(c);
}

void KvServer::enqueue_response(Conn& c, const ResponseFrame& resp) {
  encode_response(resp, &c.out);
  m_responses_->inc();
}

void KvServer::send_response(Conn& c, const ResponseFrame& resp) {
  enqueue_response(c, resp);
  flush_out(c);
}

void KvServer::flush_touched(std::vector<std::uint64_t>& touched) {
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const std::uint64_t id : touched) {
    auto it = conns_.find(id);
    if (it != conns_.end()) flush_out(*it->second);
  }
}

void KvServer::respond_now(Conn& c, const RequestFrame& f,
                           api::KvsResult result, Bytes&& value,
                           std::uint32_t extra) {
  ResponseFrame resp;
  resp.opcode = f.opcode;
  resp.status = result;
  resp.request_id = f.request_id;
  resp.extra = extra;
  resp.value = std::move(value);
  send_response(c, resp);
}

void KvServer::handle_request(Conn& c, RequestFrame&& f) {
  m_requests_->inc();
  const std::uint64_t now = wall_now_ns();

  Tenant* tenant;
  if (cfg_.allow_unknown_tenants) {
    tenant = &tenants_.find_or_default(f.tenant_id, now);
  } else {
    tenant = tenants_.find(f.tenant_id);
    if (tenant == nullptr) {
      respond_now(c, f, api::KvsResult::KVS_ERR_OPTION_INVALID);
      return;
    }
  }

  if (f.opcode == Opcode::kStatus) {
    // Monitoring stays exempt from quotas so a throttled tenant can
    // still observe its own throttling.
    const std::string json = metrics_snapshot().to_json();
    respond_now(c, f, api::KvsResult::KVS_SUCCESS,
                Bytes(json.begin(), json.end()));
    return;
  }

  // Per-tenant quota, then the global and per-connection admission
  // caps. All three answer with the retryable KVS_ERR_QUEUE_FULL —
  // an over-limit request is never silently dropped.
  if (!tenant->bucket.try_take(now)) {
    tenant->throttled->inc();
    m_throttled_->inc();
    respond_now(c, f, api::KvsResult::KVS_ERR_QUEUE_FULL);
    return;
  }

  if (f.opcode == Opcode::kIterOpen || f.opcode == Opcode::kIterNext ||
      f.opcode == Opcode::kIterClose) {
    handle_cursor_op(c, f, *tenant, now);
    return;
  }

  // PUT / GET / DEL: the async path. The tenant prefix rides inside the
  // device's key ceiling.
  if (f.key.empty() ||
      f.key.size() + kTenantPrefixLen > kvssd::kMaxKeySize) {
    respond_now(c, f, api::KvsResult::KVS_ERR_KEY_LENGTH_INVALID);
    return;
  }
  if (inflight_total_ >= cfg_.max_global_inflight ||
      c.inflight >= cfg_.max_conn_inflight) {
    m_admission_rejects_->inc();
    respond_now(c, f, api::KvsResult::KVS_ERR_QUEUE_FULL);
    return;
  }

  Bytes nk = namespaced_key(tenant->id, f.key);
  const Pending p{c.id, f.request_id, f.opcode, tenant->id, now,
                  f.key.size() + f.value.size()};
  std::uint64_t id;
  {
    std::unique_lock<std::mutex> lk(backend_mu_, std::defer_lock);
    if (serialize_backend_) lk.lock();
    switch (f.opcode) {
      case Opcode::kPut:
        id = dev_.store_async(std::move(nk), std::move(f.value));
        break;
      case Opcode::kGet:
        id = dev_.retrieve_async(std::move(nk));
        break;
      default:
        id = dev_.remove_async(std::move(nk));
        break;
    }
  }
  // Registered before this loop next harvests, so the completion always
  // finds its entry.
  pending_.emplace(id, p);
  c.inflight++;
  inflight_total_++;
  m_inflight_->add(1);
}

void KvServer::handle_cursor_op(Conn& c, RequestFrame& f,
                                Tenant& tenant, std::uint64_t now_ns) {
  if (f.opcode == Opcode::kIterOpen) {
    if (c.cursors.size() >= cfg_.max_conn_cursors) {
      respond_now(c, f, api::KvsResult::KVS_ERR_ITERATOR_MAX);
      return;
    }
    const Bytes prefix = namespaced_key(tenant.id, f.key);
    api::SnapshotHandle snap{};
    std::uint64_t handle = 0;
    api::KvsResult r;
    {
      std::unique_lock<std::mutex> lk(backend_mu_, std::defer_lock);
      if (serialize_backend_) lk.lock();
      // The cursor pins its own snapshot explicitly (rather than the
      // iterator's internal one) so the pinned epoch can ride in the
      // continuation token and the reaper can release it by handle.
      r = dev_.open_snapshot(&snap);
      if (r == api::KvsResult::KVS_SUCCESS) {
        r = dev_.kvs_open_iterator(as_sv(prefix), &handle, &snap);
        if (r != api::KvsResult::KVS_SUCCESS) (void)dev_.release_snapshot(snap);
      }
    }
    if (r != api::KvsResult::KVS_SUCCESS) {
      respond_now(c, f, r);
      return;
    }
    const std::uint64_t cid = c.next_cursor_id++;
    c.cursors.emplace(cid, Cursor{handle, snap, tenant.id});
    m_cursors_opened_->inc();
    m_cursors_->add(1);
    Bytes token;
    encode_iter_token(IterToken{cid, snap.epoch}, &token);
    tenant.ops->inc();
    tenant.bytes->inc(f.key.size() + token.size());
    tenant.latency->record(wall_now_ns() - now_ns);
    respond_now(c, f, r, std::move(token));
    return;
  }

  // kIterNext / kIterClose: both start from the continuation token. A
  // token that does not name a live cursor of THIS connection and THIS
  // tenant is an invalid request, not an expired snapshot.
  IterToken t;
  auto found = c.cursors.end();
  if (decode_iter_token(ByteSpan(f.value), &t)) found = c.cursors.find(t.cursor_id);
  if (found == c.cursors.end() || found->second.tenant != tenant.id) {
    respond_now(c, f, api::KvsResult::KVS_ERR_OPTION_INVALID);
    return;
  }
  Cursor& cur = found->second;

  if (f.opcode == Opcode::kIterClose) {
    {
      std::unique_lock<std::mutex> lk(backend_mu_, std::defer_lock);
      if (serialize_backend_) lk.lock();
      (void)dev_.kvs_close_iterator(cur.backend_iter);
      (void)dev_.release_snapshot(cur.snap);
    }
    c.cursors.erase(found);
    m_cursors_->add(-1);
    respond_now(c, f, api::KvsResult::KVS_SUCCESS);
    return;
  }

  // kIterNext. Same batch ceiling as the one-shot path: a response
  // above limits.max_iter_keys would be rejected by the client decoder.
  const std::size_t ceiling =
      std::min(cfg_.max_iter_keys, cfg_.limits.max_iter_keys);
  const std::size_t limit =
      std::min<std::size_t>(f.limit == 0 ? ceiling : f.limit, ceiling);
  std::vector<std::string> keys;
  api::KvsResult r;
  {
    std::unique_lock<std::mutex> lk(backend_mu_, std::defer_lock);
    if (serialize_backend_) lk.lock();
    r = dev_.kvs_iterator_next(cur.backend_iter, limit, &keys);
  }
  if (r != api::KvsResult::KVS_SUCCESS) {
    // KVS_ERR_KEY_NOT_EXIST = clean end-of-scan (cursor stays open for
    // an explicit close); KVS_ERR_SNAPSHOT_TOO_OLD = the pin fell out
    // of retention mid-scan and the client must restart; KVS_ERR_SYS_IO
    // = a read error, and the cursor stays where it stood.
    respond_now(c, f, r);
    return;
  }
  for (auto& k : keys) k.erase(0, kTenantPrefixLen);
  Bytes payload;
  encode_key_list(keys, &payload);
  const auto count = static_cast<std::uint32_t>(keys.size());
  tenant.ops->inc();
  tenant.bytes->inc(f.key.size() + payload.size());
  tenant.latency->record(wall_now_ns() - now_ns);
  respond_now(c, f, r, std::move(payload), count);
}

std::size_t KvServer::harvest_completions() {
  if (inflight_total_ == 0) return 0;
  std::vector<api::KvsCompletion> comps;
  if (serialize_backend_) {
    // Single-threaded device: poll_completions drives its queue inline
    // (cheap, synchronous) — this loop IS the device's engine.
    std::lock_guard lk(backend_mu_);
    dev_.poll_completions(&comps);
  } else {
    // Sharded: poll_completions' queue drive is a cross-shard barrier
    // that would park this event loop mid-pipeline. Harvest only what
    // the shard workers already pushed; the notify eventfd guarantees
    // we run again when more lands.
    dev_.try_poll_completions(&comps);
  }
  std::vector<std::uint64_t> touched;
  for (api::KvsCompletion& comp : comps) {
    auto it = pending_.find(comp.id);
    if (it == pending_.end()) {
      // A command an earlier stop() abandoned at its drain deadline.
      m_orphaned_->inc();
      continue;
    }
    route_completion(it->second, std::move(comp), &touched);
    pending_.erase(it);
    inflight_total_--;
    m_inflight_->add(-1);
  }
  if (!comps.empty()) m_harvest_batches_->inc();
  flush_touched(touched);
  return comps.size();
}

void KvServer::route_completion(const Pending& p,
                                api::KvsCompletion&& comp,
                                std::vector<std::uint64_t>* touched) {
  // Tenant accounting happens at completion (the command actually ran).
  if (Tenant* t = tenants_.find(p.tenant)) {
    t->ops->inc();
    t->bytes->inc(p.req_bytes + comp.value.size());
    t->latency->record(wall_now_ns() - p.t0_ns);
  }

  auto it = conns_.find(p.conn_id);
  if (it == conns_.end()) {
    m_orphaned_->inc();
    return;
  }
  Conn& c = *it->second;
  if (c.inflight > 0) c.inflight--;
  ResponseFrame resp;
  resp.opcode = p.opcode;
  resp.status = comp.result;
  resp.request_id = p.request_id;
  if (p.opcode == Opcode::kGet && comp.result == api::KvsResult::KVS_SUCCESS) {
    resp.value = std::move(comp.value);
  }
  enqueue_response(c, resp);
  touched->push_back(c.id);
}

}  // namespace rhik::net
