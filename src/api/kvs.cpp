#include "api/kvs.hpp"

#include <algorithm>
#include <utility>

namespace rhik::api {

KvsResult from_status(Status s) noexcept {
  switch (s) {
    case Status::kOk: return KvsResult::KVS_SUCCESS;
    case Status::kNotFound: return KvsResult::KVS_ERR_KEY_NOT_EXIST;
    case Status::kAlreadyExists: return KvsResult::KVS_ERR_OPTION_INVALID;
    case Status::kDeviceFull: return KvsResult::KVS_ERR_CONT_FULL;
    case Status::kIndexFull: return KvsResult::KVS_ERR_CONT_FULL;
    case Status::kCollisionAbort: return KvsResult::KVS_ERR_UNCORRECTIBLE;
    case Status::kInvalidArgument: return KvsResult::KVS_ERR_KEY_LENGTH_INVALID;
    case Status::kCorruption: return KvsResult::KVS_ERR_SYS_IO;
    case Status::kIoError: return KvsResult::KVS_ERR_SYS_IO;
    case Status::kBusy: return KvsResult::KVS_ERR_DEV_BUSY;
    case Status::kUnsupported: return KvsResult::KVS_ERR_ITERATOR_NOT_SUPPORTED;
    case Status::kQueueFull: return KvsResult::KVS_ERR_QUEUE_FULL;
    case Status::kIteratorMax: return KvsResult::KVS_ERR_ITERATOR_MAX;
    case Status::kSnapshotTooOld: return KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD;
  }
  return KvsResult::KVS_ERR_SYS_IO;
}

const char* to_string(KvsResult r) noexcept {
  switch (r) {
    case KvsResult::KVS_SUCCESS: return "KVS_SUCCESS";
    case KvsResult::KVS_ERR_KEY_NOT_EXIST: return "KVS_ERR_KEY_NOT_EXIST";
    case KvsResult::KVS_ERR_KEY_LENGTH_INVALID: return "KVS_ERR_KEY_LENGTH_INVALID";
    case KvsResult::KVS_ERR_VALUE_LENGTH_INVALID:
      return "KVS_ERR_VALUE_LENGTH_INVALID";
    case KvsResult::KVS_ERR_CONT_FULL: return "KVS_ERR_CONT_FULL";
    case KvsResult::KVS_ERR_UNCORRECTIBLE: return "KVS_ERR_UNCORRECTIBLE";
    case KvsResult::KVS_ERR_DEV_BUSY: return "KVS_ERR_DEV_BUSY";
    case KvsResult::KVS_ERR_SYS_IO: return "KVS_ERR_SYS_IO";
    case KvsResult::KVS_ERR_OPTION_INVALID: return "KVS_ERR_OPTION_INVALID";
    case KvsResult::KVS_ERR_ITERATOR_NOT_SUPPORTED:
      return "KVS_ERR_ITERATOR_NOT_SUPPORTED";
    case KvsResult::KVS_ERR_QUEUE_FULL: return "KVS_ERR_QUEUE_FULL";
    case KvsResult::KVS_ERR_ITERATOR_MAX: return "KVS_ERR_ITERATOR_MAX";
    case KvsResult::KVS_ERR_SNAPSHOT_TOO_OLD:
      return "KVS_ERR_SNAPSHOT_TOO_OLD";
  }
  return "KVS_ERR_UNKNOWN";
}

KvsDevice::KvsDevice(const KvsDeviceOptions& opts) {
  num_shards_ = std::max<std::uint32_t>(1, opts.num_shards);
  iterator_enabled_ = opts.enable_iterator;
  kvssd::DeviceConfig cfg;
  // With num_shards > 1 each shard gets an even slice of the array's
  // capacity, DRAM budget and sizing hint.
  cfg.geometry = flash::Geometry::with_capacity(
      opts.capacity_bytes / num_shards_, opts.pages_per_block);
  cfg.dram_cache_bytes = opts.dram_cache_bytes / num_shards_;
  cfg.prefix_signatures = opts.enable_iterator;
  cfg.checkpoint.enabled = opts.enable_checkpoints;
  cfg.snapshot_retention_bytes = opts.snapshot_retention_bytes;
  const std::uint64_t keys_hint = opts.anticipated_keys / num_shards_;
  if (opts.use_rhik) {
    cfg.index_kind = kvssd::IndexKind::kRhik;
    cfg.rhik.anticipated_keys = keys_hint;
  } else {
    cfg.index_kind = kvssd::IndexKind::kMlHash;
    if (keys_hint != 0) {
      cfg.mlhash = index::MlHashConfig::for_keys(keys_hint,
                                                 cfg.geometry.page_size);
    }
  }
  cfg_ = cfg;
  if (num_shards_ == 1) {
    dev_ = std::make_unique<kvssd::KvssdDevice>(cfg);
    backend_ = dev_.get();
  } else {
    shard::ShardedConfig sc;
    sc.device = cfg;
    sc.num_shards = num_shards_;
    array_ = std::make_unique<shard::ShardedKvssd>(sc);
    backend_ = array_.get();
  }
  install_sink();
}

KvsDevice::~KvsDevice() = default;

KvsResult KvsDevice::store(std::string_view key, ByteSpan value) {
  return from_status(backend_->put(key_span(key), value));
}

KvsResult KvsDevice::retrieve(std::string_view key, Bytes* value_out) {
  return from_status(backend_->get(key_span(key), value_out));
}

KvsResult KvsDevice::remove(std::string_view key) {
  return from_status(backend_->del(key_span(key)));
}

KvsResult KvsDevice::exist(std::string_view key) {
  return from_status(backend_->exist(key_span(key)));
}

// -- MVCC snapshots ------------------------------------------------------------

KvsResult KvsDevice::open_snapshot(SnapshotHandle* snap_out) {
  if (snap_out == nullptr) return KvsResult::KVS_ERR_OPTION_INVALID;
  auto snap = backend_->open_snapshot();
  if (!snap) return from_status(snap.status());
  *snap_out = *snap;
  return KvsResult::KVS_SUCCESS;
}

KvsResult KvsDevice::release_snapshot(const SnapshotHandle& snap) {
  return from_status(backend_->release_snapshot(snap));
}

KvsResult KvsDevice::retrieve_at(const SnapshotHandle& snap,
                                 std::string_view key, Bytes* value_out) {
  return from_status(backend_->read_at(snap, key_span(key), value_out));
}

// -- Streaming iterators -------------------------------------------------------

KvsResult KvsDevice::kvs_open_iterator(std::string_view prefix,
                                       std::uint64_t* iter_out,
                                       const SnapshotHandle* snap) {
  // Opened without the iterator option: the request is invalid, not the
  // device incapable — distinct result codes so callers can tell a
  // missing open flag from a backend that cannot iterate at all.
  if (!iterator_enabled_) return KvsResult::KVS_ERR_OPTION_INVALID;
  if (iter_out == nullptr) return KvsResult::KVS_ERR_OPTION_INVALID;
  auto handle = backend_->kvs_open_iterator(key_span(prefix), snap);
  if (!handle) return from_status(handle.status());
  *iter_out = *handle;
  return KvsResult::KVS_SUCCESS;
}

KvsResult KvsDevice::kvs_iterator_next(std::uint64_t iter,
                                       std::size_t max_keys,
                                       std::vector<std::string>* keys_out) {
  if (keys_out == nullptr) return KvsResult::KVS_ERR_OPTION_INVALID;
  std::vector<Bytes> keys;
  const Status s = backend_->kvs_iterator_next(iter, max_keys, &keys);
  keys_out->clear();
  if (!ok(s)) return from_status(s);
  keys_out->reserve(keys.size());
  for (const auto& k : keys) keys_out->push_back(rhik::to_string(k));
  return KvsResult::KVS_SUCCESS;
}

KvsResult KvsDevice::kvs_close_iterator(std::uint64_t iter) {
  return from_status(backend_->kvs_close_iterator(iter));
}

// -- Asynchronous verbs --------------------------------------------------------

void KvsDevice::install_sink() {
  // The backend hands whole drained batches across; convert in place and
  // land them in the ring under one lock per batch.
  backend_->set_completion_sink([this](std::vector<TaggedCompletion>&& batch) {
    std::vector<KvsCompletion> out;
    out.reserve(batch.size());
    for (TaggedCompletion& tc : batch) {
      KvsCompletion c;
      c.id = tc.tag;
      c.op = tc.op == Command::Op::kPut   ? KvsCompletion::Op::kStore
             : tc.op == Command::Op::kGet ? KvsCompletion::Op::kRetrieve
                                          : KvsCompletion::Op::kRemove;
      c.result = from_status(tc.status);
      c.key = std::move(tc.key);
      c.value = std::move(tc.value);
      out.push_back(std::move(c));
    }
    ring_.push_batch(std::move(out));
    std::lock_guard lk(notify_mu_);
    if (notify_) notify_();
  });
}

void KvsDevice::set_completion_notify(std::function<void()> notify) {
  std::lock_guard lk(notify_mu_);
  notify_ = std::move(notify);
}

std::uint64_t KvsDevice::store_async(std::string_view key, ByteSpan value) {
  return store_async(key, Bytes(value.begin(), value.end()));
}

std::uint64_t KvsDevice::store_async(std::string_view key, Bytes&& value) {
  return store_async(Bytes(key_span(key).begin(), key_span(key).end()),
                     std::move(value));
}

std::uint64_t KvsDevice::store_async(Bytes&& key, Bytes&& value) {
  return submit({Command::Op::kPut, 0, std::move(key), std::move(value)});
}

std::uint64_t KvsDevice::retrieve_async(std::string_view key) {
  return retrieve_async(Bytes(key_span(key).begin(), key_span(key).end()));
}

std::uint64_t KvsDevice::retrieve_async(Bytes&& key) {
  return submit({Command::Op::kGet, 0, std::move(key), {}});
}

std::uint64_t KvsDevice::remove_async(std::string_view key) {
  return remove_async(Bytes(key_span(key).begin(), key_span(key).end()));
}

std::uint64_t KvsDevice::remove_async(Bytes&& key) {
  return submit({Command::Op::kDel, 0, std::move(key), {}});
}

std::uint64_t KvsDevice::submit(Command&& cmd) {
  cmd.tag = next_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = cmd.tag;
  backend_->submit(std::move(cmd));
  return id;
}

std::size_t KvsDevice::poll_completions(std::vector<KvsCompletion>* out,
                                        std::size_t max) {
  std::size_t n = ring_.pop_batch(out, max);
  if (n != 0) return n;
  // Nothing finished yet: drive the backend queue (a cross-shard barrier
  // on an array), so submit → poll always makes progress.
  backend_->drain();
  return ring_.pop_batch(out, max);
}

std::size_t KvsDevice::try_poll_completions(std::vector<KvsCompletion>* out,
                                            std::size_t max) {
  return ring_.pop_batch(out, max);
}

// -- Durability / maintenance --------------------------------------------------

KvsResult KvsDevice::flush() { return from_status(backend_->flush()); }

KvsResult KvsDevice::checkpoint() {
  const Status s = backend_->checkpoint();
  // Checkpointing disabled at open is a missing option, not an IO-level
  // iterator error.
  if (s == Status::kUnsupported) return KvsResult::KVS_ERR_OPTION_INVALID;
  return from_status(s);
}

KvsResult KvsDevice::recover() {
  // recover() replaces the backend object wholesale, so this is the one
  // member that touches dev_/array_ directly rather than the seam.
  ring_.clear();  // pending completions died with the old backend
  if (array_) {
    shard::ShardedConfig sc;
    sc.device = cfg_;
    sc.num_shards = num_shards_;
    auto nands = array_->release_nands();
    array_.reset();
    backend_ = nullptr;
    auto rebuilt = shard::ShardedKvssd::recover(sc, std::move(nands));
    if (!rebuilt) return from_status(rebuilt.status());
    array_ = std::move(*rebuilt);
    backend_ = array_.get();
  } else {
    auto nand = dev_->release_nand();
    dev_.reset();
    backend_ = nullptr;
    auto rebuilt = kvssd::KvssdDevice::recover(cfg_, std::move(nand));
    if (!rebuilt) return from_status(rebuilt.status());
    dev_ = std::move(*rebuilt);
    backend_ = dev_.get();
  }
  install_sink();  // the sink died with the old backend
  return KvsResult::KVS_SUCCESS;
}

}  // namespace rhik::api
