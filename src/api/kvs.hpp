// Host-side KV API in the style of the SNIA Key Value Storage API 1.0
// (paper §II-A): the library applications link against. It wraps the
// emulated device behind SNIA-flavoured result codes and string keys,
// which is what the examples/ programs use.
//
// Internally every verb goes through one `IKvsBackend` call path
// (backend.hpp), whether the device was opened as a single emulated
// KVSSD or as a sharded multi-device array — the facade itself never
// branches per backend. Its one read-out is metrics_snapshot(); a
// restart's figures land there too, as `recovery.*`.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "api/backend.hpp"
#include "api/completion_ring.hpp"
#include "kvssd/device.hpp"
#include "shard/sharded_kvssd.hpp"

namespace rhik::api {

/// SNIA-flavoured result codes.
enum class KvsResult {
  KVS_SUCCESS = 0,
  KVS_ERR_KEY_NOT_EXIST,
  KVS_ERR_KEY_LENGTH_INVALID,
  KVS_ERR_VALUE_LENGTH_INVALID,
  KVS_ERR_CONT_FULL,        ///< device out of space
  KVS_ERR_UNCORRECTIBLE,    ///< index collision abort (§IV-A1)
  KVS_ERR_DEV_BUSY,         ///< reconfiguration in progress
  KVS_ERR_SYS_IO,
  KVS_ERR_OPTION_INVALID,
  KVS_ERR_ITERATOR_NOT_SUPPORTED,
  /// Admission control / per-tenant quota rejection (serving layer,
  /// DESIGN.md §12). Transient by contract: the request was never
  /// executed and retrying after backoff is expected to succeed —
  /// unlike KVS_ERR_CONT_FULL, which says the device/index itself is
  /// out of room and retrying is pointless.
  KVS_ERR_QUEUE_FULL,
  /// All iterator handles are in use (SNIA caps concurrently open
  /// iterators per device). Close one and retry.
  KVS_ERR_ITERATOR_MAX,
  /// The pinned snapshot outlived the version-retention budget (or did
  /// not survive a power cycle) and its versions were reclaimed
  /// (DESIGN.md §13). Retryable by contract: release the handle, open a
  /// fresh snapshot and restart the scan.
  KVS_ERR_SNAPSHOT_TOO_OLD,
};

[[nodiscard]] KvsResult from_status(Status s) noexcept;
[[nodiscard]] const char* to_string(KvsResult r) noexcept;

/// Simplified device-open options; maps onto kvssd::DeviceConfig.
struct KvsDeviceOptions {
  std::uint64_t capacity_bytes = std::uint64_t{4} << 30;  ///< emulated size
  std::uint64_t dram_cache_bytes = 10ull << 20;
  /// Erase-block granularity (pages per block); 0 keeps the paper
  /// default (256). Small emulated capacities must scale this down with
  /// them: a 64 MiB shard at the default is 8 monolithic blocks, which
  /// leaves GC no room to rotate and degrades every write to thrash.
  std::uint32_t pages_per_block = 0;
  bool use_rhik = true;               ///< false: multi-level hash baseline
  std::uint64_t anticipated_keys = 0; ///< Eq. 2 initial sizing hint
  bool enable_iterator = false;       ///< §VI prefix-signature iteration
  /// >1: sharded multi-device front-end — the keyspace is hash-
  /// partitioned across this many emulated devices, each with its own
  /// worker thread; capacity_bytes and dram_cache_bytes are split
  /// evenly. 1 (default) keeps today's single, thread-free device.
  std::uint32_t num_shards = 1;

  /// Index checkpointing + delta journaling (DESIGN.md §8): restart
  /// replays only the delta journal instead of scanning the whole
  /// device. Costs a small reserved flash tail per device/shard.
  bool enable_checkpoints = false;

  /// Byte budget for superseded versions retained only because a
  /// snapshot pins them (DESIGN.md §13). When retention would exceed
  /// this, the OLDEST pin is expired and its holder gets
  /// KVS_ERR_SNAPSHOT_TOO_OLD on next use — a retryable eviction, never
  /// torn data. 0 = unbounded. Shared across shards of an array (the
  /// pin registry is device-global), so it is NOT divided per shard.
  std::uint64_t snapshot_retention_bytes = 64ull << 20;
};

/// One finished asynchronous command, as returned by poll_completions().
struct KvsCompletion {
  enum class Op : std::uint8_t { kStore, kRetrieve, kRemove };
  std::uint64_t id = 0;  ///< the submission id the *_async call returned
  Op op = Op::kStore;
  KvsResult result = KvsResult::KVS_SUCCESS;
  /// The submitted key, returned by move — the buffer travels down with
  /// the command and comes back here, never re-copied.
  Bytes key;
  Bytes value;  ///< retrieve only; empty unless result == KVS_SUCCESS
};

/// An open KVSSD with the SNIA-style verb set.
class KvsDevice {
 public:
  explicit KvsDevice(const KvsDeviceOptions& opts);
  ~KvsDevice();

  KvsResult store(std::string_view key, ByteSpan value);
  KvsResult store(std::string_view key, std::string_view value) {
    return store(key, key_span(value));
  }
  KvsResult retrieve(std::string_view key, Bytes* value_out);
  KvsResult remove(std::string_view key);
  KvsResult exist(std::string_view key);

  // -- MVCC snapshots (DESIGN.md §13) -----------------------------------------
  /// Pins the current epoch: retrieve_at() and iterators opened against
  /// the handle observe exactly the device state at open time, sharded
  /// or not, no matter how much churn follows. Pins hold superseded
  /// versions alive — release promptly.
  KvsResult open_snapshot(SnapshotHandle* snap_out);
  /// Releases a pin; retained versions it alone kept alive become
  /// reclaimable at the next GC/background tick.
  KvsResult release_snapshot(const SnapshotHandle& snap);
  /// Point read at a pinned epoch. KVS_ERR_SNAPSHOT_TOO_OLD when the
  /// pin expired (retention budget) or did not survive a power cycle.
  KvsResult retrieve_at(const SnapshotHandle& snap, std::string_view key,
                        Bytes* value_out);

  // -- Streaming iterators (SNIA-style handle API) -----------------------------
  /// Opens a prefix iterator and returns its handle. With `snap`
  /// non-null the scan is bound to that pinned epoch; otherwise it pins
  /// its own snapshot internally (released on close), so every scan is
  /// a consistent cut even under concurrent writers. Results:
  /// KVS_ERR_OPTION_INVALID when the device was opened without
  /// enable_iterator; KVS_ERR_ITERATOR_MAX when too many iterators are
  /// already open; KVS_ERR_SNAPSHOT_TOO_OLD when `snap` has expired.
  KvsResult kvs_open_iterator(std::string_view prefix, std::uint64_t* iter_out,
                              const SnapshotHandle* snap = nullptr);
  /// Streams up to `max_keys` further keys into `keys_out` (replaced,
  /// not appended). KVS_SUCCESS with a non-empty batch while keys
  /// remain; KVS_ERR_KEY_NOT_EXIST once the iterator is exhausted;
  /// KVS_ERR_SNAPSHOT_TOO_OLD if the backing pin expired mid-scan (the
  /// scan errors rather than silently mixing epochs); KVS_ERR_SYS_IO on
  /// a read error, after which a retry loses no key.
  KvsResult kvs_iterator_next(std::uint64_t iter, std::size_t max_keys,
                              std::vector<std::string>* keys_out);
  /// Closes the iterator and releases its internally-pinned snapshot
  /// (caller-supplied snapshots stay open — the caller releases those).
  KvsResult kvs_close_iterator(std::uint64_t iter);

  // -- Asynchronous verbs (SNIA-style submit + poll) --------------------------
  /// Queue a store/retrieve/remove; returns the submission id echoed in
  /// the matching KvsCompletion. Completions surface via
  /// poll_completions(), never from the *_async call itself.
  std::uint64_t store_async(std::string_view key, ByteSpan value);
  std::uint64_t store_async(std::string_view key, std::string_view value) {
    return store_async(key, key_span(value));
  }
  /// Move overload: hands the value buffer straight down the submission
  /// path — zero copies between the caller and the flash write buffer.
  std::uint64_t store_async(std::string_view key, Bytes&& value);
  /// Full move overload: both buffers travel down without a copy. The
  /// serving layer builds the tenant-prefixed key once and moves it
  /// here, so a networked op costs no more key copies than a local one.
  std::uint64_t store_async(Bytes&& key, Bytes&& value);
  std::uint64_t retrieve_async(std::string_view key);
  std::uint64_t retrieve_async(Bytes&& key);
  std::uint64_t remove_async(std::string_view key);
  std::uint64_t remove_async(Bytes&& key);
  /// Harvests up to `max` finished commands into `out` (appended);
  /// returns how many were harvested. When nothing has finished yet the
  /// backend's queue is driven first, so a submit → poll loop always
  /// makes progress. Completions cross from the backend in whole drained
  /// batches (one ring lock per batch).
  std::size_t poll_completions(std::vector<KvsCompletion>* out,
                               std::size_t max = SIZE_MAX);
  /// Non-blocking poll_completions: harvests whatever the backend has
  /// already pushed into the ring, never driving the queue. On a sharded
  /// backend poll_completions' drive is a cross-shard *barrier* — an
  /// event loop that only wants "what's finished so far" (the serving
  /// layer) must use this instead and rely on set_completion_notify.
  std::size_t try_poll_completions(std::vector<KvsCompletion>* out,
                                   std::size_t max = SIZE_MAX);
  /// Registers a callback fired after each completion batch lands in the
  /// ring — from a shard worker thread on a sharded backend, so it must
  /// be thread-safe and cheap (an eventfd write, not work). Pass nullptr
  /// to clear. The serving layer uses this to wake its epoll loop
  /// instead of timer-polling the ring.
  void set_completion_notify(std::function<void()> notify);

  // -- Durability / maintenance -----------------------------------------------
  /// Persists buffered data, index state and journal records.
  KvsResult flush();
  /// Synchronous index checkpoint (DESIGN.md §8). KVS_ERR_OPTION_INVALID
  /// when the device was opened without enable_checkpoints.
  KvsResult checkpoint();
  /// Simulated power cycle + restart: tears the device (or every shard)
  /// down abruptly, then rebuilds it from flash — the checkpoint fast
  /// path when one is durable, the full-device scan otherwise. The
  /// restart's figures are `recovery.*` in metrics_snapshot().
  KvsResult recover();

  /// True when opened with num_shards > 1.
  [[nodiscard]] bool sharded() const noexcept { return array_ != nullptr; }

  // -- Introspection (single call path, sharded or not) ------------------------
  /// The one metrics view, sharded or not: the single device's snapshot,
  /// or the shard-merged array snapshot (implies a cross-shard barrier).
  /// Operation counters are `device.*`, the last restart's `recovery.*`.
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() {
    return backend_->metrics_snapshot();
  }
  /// The backend seam itself, for advanced callers that want the raw
  /// verb set without the string-key / KvsResult dressing.
  [[nodiscard]] IKvsBackend& backend() noexcept { return *backend_; }

 private:
  static ByteSpan key_span(std::string_view key) noexcept {
    return {reinterpret_cast<const std::uint8_t*>(key.data()), key.size()};
  }
  /// Installs the batched completion sink on backend_ (construction and
  /// after recover() rebuilds the backend).
  void install_sink();
  /// Stamps `cmd` with a fresh submission id and submits it.
  std::uint64_t submit(Command&& cmd);

  kvssd::DeviceConfig cfg_;      ///< per-device (= per-shard) config
  std::uint32_t num_shards_ = 1;
  bool iterator_enabled_ = false;

  /// Harvested-but-unpolled completions. Sharded backends push from
  /// worker threads (the ring locks per batch, not per op). Declared
  /// before the backends so it outlives their worker shutdown.
  BatchRing<KvsCompletion> ring_;
  /// Post-push wakeup hook (serving layer). Swapped under a mutex so
  /// install/clear races with in-flight sink batches stay defined.
  std::mutex notify_mu_;
  std::function<void()> notify_;

  std::unique_ptr<kvssd::KvssdDevice> dev_;
  std::unique_ptr<shard::ShardedKvssd> array_;
  IKvsBackend* backend_ = nullptr;  ///< == dev_ or array_

  std::atomic<std::uint64_t> next_id_{1};
};

}  // namespace rhik::api
