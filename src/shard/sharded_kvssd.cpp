#include "shard/sharded_kvssd.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>

namespace rhik::shard {

namespace {

/// One-shot completion gate for call() and call_all().
class Gate {
 public:
  void open() {
    // Notify under the lock: the gate lives on the waiter's stack and is
    // destroyed the moment wait() returns, so the waiter must not be able
    // to re-acquire the mutex (and return) until we are done with cv_.
    std::lock_guard lk(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

std::vector<std::unique_ptr<kvssd::KvssdDevice>> build_devices(
    const ShardedConfig& cfg) {
  const std::uint32_t n = std::max<std::uint32_t>(1, cfg.num_shards);
  std::vector<std::unique_ptr<kvssd::KvssdDevice>> devs;
  devs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    devs.push_back(std::make_unique<kvssd::KvssdDevice>(cfg.device));
  }
  return devs;
}

/// Ensures every shard device shares ONE snapshot context (so a snapshot
/// pins a single device-global epoch): honors a caller-installed context
/// on cfg.device.snapshots, else creates one the array will own.
std::unique_ptr<ftl::SnapshotContext> adopt_context(ShardedConfig& cfg) {
  if (cfg.device.snapshots != nullptr) return nullptr;  // caller-owned
  auto ctx = std::make_unique<ftl::SnapshotContext>();
  cfg.device.snapshots = ctx.get();
  return ctx;
}

}  // namespace

ShardedKvssd::ShardedKvssd(ShardedConfig cfg)
    : ShardedKvssd(std::move(cfg), nullptr, {}) {}

ShardedKvssd::ShardedKvssd(
    ShardedConfig cfg, std::unique_ptr<ftl::SnapshotContext> ctx,
    std::vector<std::unique_ptr<kvssd::KvssdDevice>> devices)
    : cfg_(std::move(cfg)), owned_snaps_(std::move(ctx)) {
  if (devices.empty()) {
    // Fresh array (public constructor): share one context, then build.
    if (owned_snaps_ == nullptr) owned_snaps_ = adopt_context(cfg_);
    devices = build_devices(cfg_);
  }
  snaps_ = cfg_.device.snapshots != nullptr ? cfg_.device.snapshots
                                            : owned_snaps_.get();
  assert(snaps_ != nullptr);
  cfg_.num_shards = static_cast<std::uint32_t>(devices.size());
  fe_puts_ = &front_metrics_.counter("frontend.puts");
  fe_gets_ = &front_metrics_.counter("frontend.gets");
  fe_dels_ = &front_metrics_.counter("frontend.dels");
  fe_exists_ = &front_metrics_.counter("frontend.exists");
  fe_barriers_ = &front_metrics_.counter("frontend.barriers");
  shards_.reserve(devices.size());
  for (auto& dev : devices) {
    auto s = std::make_unique<Shard>();
    s->dev = std::move(dev);
    s->ring = std::make_unique<SubmissionRing<ShardOp>>(cfg_.ring_capacity);
    shards_.push_back(std::move(s));
  }
  // Workers start after every shard exists, so a fast worker can never
  // observe a partially built array.
  for (auto& s : shards_) {
    s->worker = std::thread([this, sp = s.get()] { worker_loop(*sp); });
  }
}

ShardedKvssd::~ShardedKvssd() {
  for (auto& s : shards_) s->ring->close();
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
}

Result<std::unique_ptr<ShardedKvssd>> ShardedKvssd::recover(
    ShardedConfig cfg, std::vector<std::unique_ptr<flash::NandDevice>> nands) {
  const std::uint32_t n = std::max<std::uint32_t>(1, cfg.num_shards);
  if (nands.size() != n) return Status::kInvalidArgument;

  // One shared snapshot context across the recovered shards; each
  // shard's recover() raises its epoch past every stamp found on flash,
  // so the shared source ends above the whole array's high-water.
  std::unique_ptr<ftl::SnapshotContext> ctx = adopt_context(cfg);

  std::vector<std::unique_ptr<kvssd::KvssdDevice>> devices;
  devices.reserve(n);
  for (auto& nand : nands) {
    auto dev = kvssd::KvssdDevice::recover(cfg.device, std::move(nand));
    if (!dev) return dev.status();
    devices.push_back(std::move(*dev));
  }

  // Shards advance their clocks concurrently and array time is their
  // max; re-seed every clock to the slowest recovery scan so per-shard
  // deltas stay comparable after the restart.
  SimTime max_clock = 0;
  for (auto& dev : devices) max_clock = std::max(max_clock, dev->clock().now());
  for (auto& dev : devices) dev->clock().advance(max_clock - dev->clock().now());

  return std::unique_ptr<ShardedKvssd>(new ShardedKvssd(
      std::move(cfg), std::move(ctx), std::move(devices)));
}

std::vector<std::unique_ptr<flash::NandDevice>> ShardedKvssd::release_nands() {
  // Stop the workers (each drains its remaining queue on close, exactly
  // as the destructor does), then strip each shard's NAND array. An
  // *abrupt* cut is modeled by arming a FaultInjector on a shard's NAND
  // instead — once power dies, drained commands fail like real
  // in-flight ones.
  for (auto& s : shards_) s->ring->close();
  for (auto& s : shards_) {
    if (s->worker.joinable()) s->worker.join();
  }
  std::vector<std::unique_ptr<flash::NandDevice>> nands;
  nands.reserve(shards_.size());
  for (auto& s : shards_) nands.push_back(s->dev->release_nand());
  return nands;
}

void ShardedKvssd::worker_loop(Shard& s) {
  std::vector<ShardOp> batch;
  bool open = true;
  while (open) {
    batch.clear();
    if (!s.ring->try_pop_all(batch)) {
      // Ring idle: fold background GC and index-migration quanta into
      // the window — one bounded quantum per ring re-check, so a
      // submitter never waits behind more than quantum_pages of
      // relocation (or incremental_batch buckets of migration). Block
      // for new work only once the device has nothing pending.
      if (s.dev->pump_background()) continue;
      open = s.ring->pop_all(batch);
    }
    for (ShardOp& op : batch) {
      if (auto* cmd = std::get_if<api::Command>(&op)) {
        s.dev->submit(std::move(*cmd));
      } else {
        // Control op: queued commands land first, so it observes every
        // command submitted to this shard before it.
        s.completed += s.dev->drain();
        std::get<Control>(op)(*s.dev);
      }
    }
    // One ring batch ingested: drain the device queue. This is the
    // window the index-aware grouped drain amortizes record-page loads
    // over — the deeper the ring backlog, the better the grouping.
    s.completed += s.dev->drain();
  }
  s.completed += s.dev->drain();
}

void ShardedKvssd::submit_to(std::uint32_t shard, ShardOp op) {
  const bool pushed = shards_[shard]->ring->push(std::move(op));
  assert(pushed && "submission after shutdown");
  (void)pushed;
}

std::uint64_t ShardedKvssd::signature(ByteSpan key) const {
  return kvssd::KvssdDevice::signature_for(cfg_.device, key);
}

std::uint32_t ShardedKvssd::shard_of_sig(std::uint64_t sig) const {
  if (shards_.size() == 1) return 0;
  // Fibonacci remix so the shard choice uses different bits than the
  // per-shard index directory (which partitions on sig & dir_mask).
  const std::uint64_t h = sig * 0x9E3779B97F4A7C15ull;
  return static_cast<std::uint32_t>((h >> 32) % shards_.size());
}

std::uint32_t ShardedKvssd::shard_of(ByteSpan key) const {
  return shard_of_sig(signature(key));
}

kvssd::KvssdDevice& ShardedKvssd::shard_device(std::uint32_t shard) {
  return *shards_[shard]->dev;
}

void ShardedKvssd::call(std::uint32_t shard, const Control& fn) {
  Gate gate;
  submit_to(shard, Control([&](kvssd::KvssdDevice& dev) {
    fn(dev);
    gate.open();
  }));
  gate.wait();
}

void ShardedKvssd::call_all(
    const std::function<void(std::uint32_t, kvssd::KvssdDevice&)>& fn) {
  fe_barriers_->inc();
  Gate gate;
  std::atomic<std::uint32_t> remaining{
      static_cast<std::uint32_t>(shards_.size())};
  for (std::uint32_t sh = 0; sh < shards_.size(); ++sh) {
    submit_to(sh, Control([&, sh](kvssd::KvssdDevice& dev) {
      fn(sh, dev);
      if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) gate.open();
    }));
  }
  gate.wait();
}

// -- Synchronous verbs ---------------------------------------------------------

Status ShardedKvssd::put(ByteSpan key, ByteSpan value) {
  fe_puts_->inc();
  Status st = Status::kIoError;
  call(shard_of(key), [&](kvssd::KvssdDevice& d) { st = d.put(key, value); });
  return st;
}

Status ShardedKvssd::get(ByteSpan key, Bytes* value_out) {
  fe_gets_->inc();
  Status st = Status::kIoError;
  call(shard_of(key),
       [&](kvssd::KvssdDevice& d) { st = d.get(key, value_out); });
  return st;
}

Status ShardedKvssd::del(ByteSpan key) {
  fe_dels_->inc();
  Status st = Status::kIoError;
  call(shard_of(key), [&](kvssd::KvssdDevice& d) { st = d.del(key); });
  return st;
}

Status ShardedKvssd::exist(ByteSpan key) {
  fe_exists_->inc();
  Status st = Status::kIoError;
  call(shard_of(key), [&](kvssd::KvssdDevice& d) { st = d.exist(key); });
  return st;
}

// -- MVCC snapshots and array iterators ----------------------------------------

Result<api::SnapshotHandle> ShardedKvssd::open_snapshot() {
  return pin_after_barrier();
}

api::SnapshotHandle ShardedKvssd::pin_after_barrier() {
  // The barrier makes the pin cover every command submitted before the
  // call, as a sync verb would see it. The registry itself is shared and
  // internally synchronized; pinning is linearizable against every
  // shard's stamps through the shared EpochSource (see ftl/mvcc.hpp's
  // ordering argument).
  call_all([](std::uint32_t, kvssd::KvssdDevice&) {});
  const ftl::SnapshotRegistry::Pin pin = snaps_->registry.open();
  return api::SnapshotHandle{pin.id, pin.epoch};
}

Status ShardedKvssd::release_snapshot(const api::SnapshotHandle& snap) {
  return snaps_->registry.release(snap.id, snap.epoch);
}

Status ShardedKvssd::read_at(const api::SnapshotHandle& snap, ByteSpan key,
                             Bytes* value_out) {
  fe_gets_->inc();
  Status st = Status::kIoError;
  call(shard_of(key), [&](kvssd::KvssdDevice& d) {
    st = d.read_at(snap, key, value_out);
  });
  return st;
}

Result<std::uint64_t> ShardedKvssd::kvs_open_iterator(
    ByteSpan prefix, const api::SnapshotHandle* snap) {
  if (!cfg_.device.prefix_signatures) return Status::kUnsupported;
  if (prefix.empty()) return Status::kInvalidArgument;

  ArrayIter it;
  it.prefix = Bytes(prefix.begin(), prefix.end());
  if (snap != nullptr) {
    // Caller-owned pin: validate it up front so a dead handle fails at
    // open, not on the first next() (see KvssdDevice::read_at).
    const auto epoch = snaps_->registry.epoch_of(snap->id);
    if (!epoch) return epoch.status();
    if (snap->epoch != 0 && *epoch != snap->epoch) {
      return Status::kSnapshotTooOld;
    }
    it.snap = *snap;
  } else {
    it.snap = pin_after_barrier();
    it.owns_snap = true;
  }

  std::lock_guard lk(iter_mu_);
  if (array_iters_.size() >= kvssd::IteratorManager::kMaxOpenIterators) {
    if (it.owns_snap) (void)snaps_->registry.release(it.snap.id);
    return Status::kIteratorMax;
  }
  const std::uint64_t handle = next_iter_handle_++;
  array_iters_.emplace(handle, std::move(it));
  return handle;
}

Status ShardedKvssd::kvs_iterator_next(std::uint64_t handle,
                                       std::size_t max_keys,
                                       std::vector<Bytes>* keys_out) {
  if (keys_out == nullptr || max_keys == 0) return Status::kInvalidArgument;
  std::lock_guard lk(iter_mu_);
  const auto found = array_iters_.find(handle);
  if (found == array_iters_.end()) return Status::kInvalidArgument;
  ArrayIter& it = found->second;

  keys_out->clear();
  std::vector<Bytes> batch;
  while (keys_out->size() < max_keys && it.shard < shards_.size()) {
    Status st = Status::kOk;
    call(it.shard, [&](kvssd::KvssdDevice& d) {
      if (!it.dev_open) {
        // Lazy per-shard open: one device handle lives at a time, bound
        // to the iterator's pin (still valid, or the open fails with the
        // pin's error — kSnapshotTooOld once expired).
        const auto h = d.kvs_open_iterator(it.prefix, &it.snap);
        if (!h) {
          st = h.status();
          return;
        }
        it.dev_handle = *h;
        it.dev_open = true;
      }
      st = d.kvs_iterator_next(it.dev_handle, max_keys - keys_out->size(),
                               &batch);
      if (st == Status::kNotFound) (void)d.kvs_close_iterator(it.dev_handle);
    });
    if (st == Status::kNotFound) {
      // Shard exhausted: advance the cursor.
      it.dev_open = false;
      it.dev_handle = 0;
      it.shard++;
      continue;
    }
    if (!ok(st)) {
      // A failed device step consumed nothing, so keys already gathered
      // from earlier shards go out now and the retry reports the error.
      if (keys_out->empty()) return st;
      break;
    }
    for (Bytes& k : batch) keys_out->push_back(std::move(k));
    batch.clear();
  }
  if (keys_out->empty() && it.shard >= shards_.size()) {
    return Status::kNotFound;  // ITERATOR_END
  }
  return Status::kOk;
}

Status ShardedKvssd::kvs_close_iterator(std::uint64_t handle) {
  std::lock_guard lk(iter_mu_);
  const auto found = array_iters_.find(handle);
  if (found == array_iters_.end()) return Status::kInvalidArgument;
  ArrayIter& it = found->second;
  if (it.dev_open) {
    call(it.shard, [&](kvssd::KvssdDevice& d) {
      (void)d.kvs_close_iterator(it.dev_handle);
    });
  }
  if (it.owns_snap) (void)snaps_->registry.release(it.snap.id);
  array_iters_.erase(found);
  return Status::kOk;
}

// -- Asynchronous submission ---------------------------------------------------

void ShardedKvssd::submit(api::Command&& cmd) {
  switch (cmd.op) {
    case api::Command::Op::kPut: fe_puts_->inc(); break;
    case api::Command::Op::kGet: fe_gets_->inc(); break;
    case api::Command::Op::kDel: fe_dels_->inc(); break;
  }
  const std::uint32_t sh = shard_of(cmd.key);
  submit_to(sh, std::move(cmd));
}

void ShardedKvssd::set_completion_sink(api::IKvsBackend::CompletionSink sink) {
  // Each shard device is touched only by its worker, so the install is a
  // control op; call_all makes it synchronous, so callers may submit
  // right after.
  call_all([&](std::uint32_t, kvssd::KvssdDevice& d) {
    d.set_completion_sink(sink);
  });
}

// -- Barriers and whole-array introspection ------------------------------------

std::uint64_t ShardedKvssd::completed_total() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->completed.load(std::memory_order_acquire);
  }
  return total;
}

std::size_t ShardedKvssd::drain() {
  const std::uint64_t before = completed_total();
  call_all([](std::uint32_t, kvssd::KvssdDevice&) {});
  return static_cast<std::size_t>(completed_total() - before);
}

Status ShardedKvssd::call_all_status(
    const std::function<Status(kvssd::KvssdDevice&)>& verb) {
  std::vector<Status> statuses(shards_.size(), Status::kOk);
  call_all([&](std::uint32_t sh, kvssd::KvssdDevice& d) {
    statuses[sh] = verb(d);
  });
  for (const Status s : statuses) {
    if (!ok(s)) return s;
  }
  return Status::kOk;
}

Status ShardedKvssd::flush() {
  return call_all_status([](kvssd::KvssdDevice& d) { return d.flush(); });
}

Status ShardedKvssd::checkpoint() {
  return call_all_status([](kvssd::KvssdDevice& d) { return d.checkpoint(); });
}

SimTime ShardedKvssd::sim_time() {
  std::vector<SimTime> now(shards_.size());
  call_all([&](std::uint32_t sh, kvssd::KvssdDevice& d) {
    now[sh] = d.clock().now();
  });
  return *std::max_element(now.begin(), now.end());
}

std::uint64_t ShardedKvssd::key_count() {
  std::vector<std::uint64_t> keys(shards_.size());
  call_all([&](std::uint32_t sh, kvssd::KvssdDevice& d) {
    keys[sh] = d.key_count();
  });
  std::uint64_t n = 0;
  for (const std::uint64_t k : keys) n += k;
  return n;
}

std::vector<obs::MetricsSnapshot> ShardedKvssd::shard_metrics_snapshots() {
  std::vector<obs::MetricsSnapshot> out(shards_.size());
  call_all([&](std::uint32_t sh, kvssd::KvssdDevice& d) {
    out[sh] = d.metrics_snapshot();
  });
  return out;
}

obs::MetricsSnapshot ShardedKvssd::metrics_snapshot() {
  obs::MetricsSnapshot merged;
  for (const obs::MetricsSnapshot& s : shard_metrics_snapshots()) {
    merged.merge_from(s);
  }
  front_metrics_.snapshot_into(merged);
  merged.set_gauge("frontend.shards",
                   static_cast<std::int64_t>(shards_.size()));
  return merged;
}

}  // namespace rhik::shard
