// Sharded multi-device front-end.
//
// Hash-partitions the keyspace — by the same 64-bit key signature the
// index uses (§IV-A), remixed so the shard choice is independent of the
// directory bits — across N KvssdDevice instances. Each shard is owned
// by a dedicated worker thread fed through a bounded submission ring;
// only that worker ever touches the shard's device, so the
// single-threaded emulator needs no internal locking. A ring entry is
// either a data `api::Command` for the device queue, or one control op:
// a function the worker runs on the device after draining that queue.
// Completions of data commands flow back through the batch sink, fired
// on the worker thread.
//
// Every synchronous verb, barrier and introspection call is a control
// op, issued through call() (one shard) or call_all() (every shard):
// it runs the shard device's own sync verb and observes every command
// submitted to that shard before it. Whole-array figures come from one
// place, metrics_snapshot(): the per-shard snapshots merged by
// MetricsSnapshot::merge_from (counters and histograms summed, clock
// gauges maxed). Simulated time is the MAX across shard clocks —
// shards advance their clocks concurrently, so the slowest shard
// defines array wall-clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <variant>
#include <vector>

#include "api/backend.hpp"
#include "ftl/mvcc.hpp"
#include "kvssd/device.hpp"
#include "obs/metrics.hpp"
#include "shard/submission_ring.hpp"

namespace rhik::shard {

struct ShardedConfig {
  /// Per-shard device configuration: geometry and DRAM budget describe
  /// ONE shard (callers slicing a fixed array budget divide first).
  kvssd::DeviceConfig device{};
  std::uint32_t num_shards = 1;
  /// Bounded submission-ring depth per shard (producer back-pressure).
  std::size_t ring_capacity = 4096;
};

class ShardedKvssd : public api::IKvsBackend {
 public:
  explicit ShardedKvssd(ShardedConfig cfg);
  ~ShardedKvssd() override;

  ShardedKvssd(const ShardedKvssd&) = delete;
  ShardedKvssd& operator=(const ShardedKvssd&) = delete;

  /// Power-loss recovery of a whole array: one NAND per shard, in shard
  /// order (as returned by release_nands()). Each shard's device is
  /// rebuilt via KvssdDevice::recover, and every shard clock is re-seeded
  /// to the maximum adopted clock so post-recovery array time stays the
  /// max across shards. The scans' figures are `recovery.*` in
  /// metrics_snapshot(). `nands.size()` must equal max(1, cfg.num_shards).
  static Result<std::unique_ptr<ShardedKvssd>> recover(
      ShardedConfig cfg, std::vector<std::unique_ptr<flash::NandDevice>> nands);

  /// Power-off of the whole array: stops every worker thread (each
  /// drains its remaining queue first) and relinquishes each shard's
  /// NAND array, in shard order. The front-end must not be used
  /// afterwards. Call flush() first for a clean shutdown; arm a
  /// FaultInjector on a shard's NAND to model an abrupt cut instead.
  std::vector<std::unique_ptr<flash::NandDevice>> release_nands();

  // -- Synchronous verbs (the shard device's own verb, run by call()) ---------
  Status put(ByteSpan key, ByteSpan value) override;
  Status get(ByteSpan key, Bytes* value_out) override;
  Status del(ByteSpan key) override;
  Status exist(ByteSpan key) override;

  // -- MVCC snapshots (DESIGN.md §13) ----------------------------------------
  /// Pins ONE device-global epoch: every shard stamps from the same
  /// shared EpochSource, so a snapshot is a consistent cut across the
  /// whole array — a cross-shard scan at the pin never mixes epochs.
  /// Pins after a cross-shard barrier, so the cut includes every command
  /// submitted before the call.
  Result<api::SnapshotHandle> open_snapshot() override;
  Status release_snapshot(const api::SnapshotHandle& snap) override;
  /// Point read as of the snapshot, routed to the key's shard (behind
  /// that shard's queued work, like the other sync verbs).
  Status read_at(const api::SnapshotHandle& snap, ByteSpan key,
                 Bytes* value_out) override;

  // -- Streaming iterator handles (SNIA-style; §II-A) ------------------------
  /// Array-wide key iterator: walks the shards in shard order, holding
  /// one device iterator at a time, all bound to the same pinned epoch
  /// (the caller's snapshot, or an internal pin taken as open_snapshot
  /// takes one when `snap` is null).
  /// Keys stream in per-shard candidate order, shard-major — a stable,
  /// deterministic order, but not lexicographic across shards. A shard's
  /// read error ends next() with that error once the keys gathered
  /// before it are handed out; no key is skipped.
  Result<std::uint64_t> kvs_open_iterator(ByteSpan prefix,
                                          const api::SnapshotHandle* snap) override;
  Status kvs_iterator_next(std::uint64_t handle, std::size_t max_keys,
                           std::vector<Bytes>* keys_out) override;
  Status kvs_close_iterator(std::uint64_t handle) override;

  /// The array-shared snapshot context (epoch source + pin registry).
  [[nodiscard]] ftl::SnapshotContext& snapshots() noexcept { return *snaps_; }

  // -- Asynchronous submission ------------------------------------------------
  /// Routes the command to its shard's ring; the shard's worker queues it
  /// on the device and drains once per popped ring batch.
  void submit(api::Command&& cmd) override;
  /// Installs the sink on every shard device — each fires it from its
  /// own worker, one call per drained batch, so the sink must be
  /// thread-safe. Blocks until every worker has adopted the sink (a
  /// cross-shard barrier); install before the first submit.
  void set_completion_sink(api::IKvsBackend::CompletionSink sink) override;

  /// Idle-window maintenance is already owned by the shard workers —
  /// each pumps its own device whenever its submission ring is empty
  /// (see worker_loop), including under event-loop dispatch where the
  /// serving layer never blocks in a worker. Nothing for an outside
  /// caller to drive, so this reports "no work" unconditionally.
  bool pump_background() override { return false; }

  /// Cross-shard barrier: waits until every command submitted before the
  /// call has completed on its shard. Returns how many submitted
  /// commands completed since the previous barrier (approximate under
  /// concurrent submitters); sync verbs are not counted.
  std::size_t drain() override;
  /// drain() + persists buffered data and index state on every shard.
  Status flush() override;
  /// Checkpoints every shard's index (DESIGN.md §8); first non-kOk shard
  /// status wins. kUnsupported when checkpointing is disabled.
  Status checkpoint() override;

  // -- Whole-array introspection (each implies a cross-shard barrier) ---------
  /// Array time: max across shard clocks (shards advance concurrently).
  SimTime sim_time();
  /// Live KV pairs across all shards.
  std::uint64_t key_count();

  /// One coherent metrics view of the whole array: a cross-shard barrier
  /// captures every shard's KvssdDevice::metrics_snapshot() on its own
  /// worker (so nothing is dropped or double-counted under concurrent
  /// drains), merges them (counters/timers summed, clock gauges maxed),
  /// and overlays the front-end's own `frontend.*` metrics (submission
  /// counts, barrier counts, shard count).
  obs::MetricsSnapshot metrics_snapshot() override;
  /// The per-shard snapshots behind metrics_snapshot(), in shard order
  /// (same barrier semantics). The merged view equals merging these and
  /// adding the front-end overlay — tests assert exactly that.
  std::vector<obs::MetricsSnapshot> shard_metrics_snapshots();

  [[nodiscard]] std::uint32_t num_shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const ShardedConfig& config() const noexcept { return cfg_; }
  /// Key signature (identical to every shard device's computation).
  [[nodiscard]] std::uint64_t signature(ByteSpan key) const;
  /// Owning shard for a key.
  [[nodiscard]] std::uint32_t shard_of(ByteSpan key) const;
  /// Direct access to a shard's device, for tests and benches. Only safe
  /// when the array is quiescent (after drain() with no concurrent
  /// submitters) — the worker thread owns the device otherwise.
  [[nodiscard]] kvssd::KvssdDevice& shard_device(std::uint32_t shard);

 private:
  /// Wiring over pre-built shard devices (the recovery path); starts the
  /// worker threads. `devices.size()` defines the shard count. `ctx` is
  /// the shared snapshot context every device was built against.
  ShardedKvssd(ShardedConfig cfg, std::unique_ptr<ftl::SnapshotContext> ctx,
               std::vector<std::unique_ptr<kvssd::KvssdDevice>> devices);

  /// One array-level streaming iterator: a cursor over the shards,
  /// holding at most one device iterator at a time, bound to one pin.
  struct ArrayIter {
    Bytes prefix;
    api::SnapshotHandle snap{};
    bool owns_snap = false;  ///< internal pin, released on close
    std::uint32_t shard = 0;
    std::uint64_t dev_handle = 0;
    bool dev_open = false;
  };

  /// One shard-ring entry: a data command for the device queue, or a
  /// control op the worker runs after draining that queue.
  using Control = std::function<void(kvssd::KvssdDevice&)>;
  using ShardOp = std::variant<api::Command, Control>;

  struct Shard {
    std::unique_ptr<kvssd::KvssdDevice> dev;
    std::unique_ptr<SubmissionRing<ShardOp>> ring;
    std::thread worker;
    std::atomic<std::uint64_t> completed{0};
  };

  void worker_loop(Shard& s);
  void submit_to(std::uint32_t shard, ShardOp op);
  /// Runs `fn` on `shard`'s device from its worker, after the worker has
  /// drained every command submitted to that shard before the call, and
  /// returns once `fn` has. `fn` may touch caller-owned state by
  /// reference. Must not be called from a worker thread (a sink).
  void call(std::uint32_t shard, const Control& fn);
  /// call() on every shard at once (a cross-shard barrier); `fn` gets the
  /// shard index and runs concurrently across shards, so it may only
  /// write per-shard state.
  void call_all(
      const std::function<void(std::uint32_t, kvssd::KvssdDevice&)>& fn);
  /// Runs `verb` on every shard (call_all); the first non-kOk status in
  /// shard order wins.
  Status call_all_status(
      const std::function<Status(kvssd::KvssdDevice&)>& verb);
  /// open_snapshot(): a pin taken after a drain barrier.
  api::SnapshotHandle pin_after_barrier();
  [[nodiscard]] std::uint32_t shard_of_sig(std::uint64_t sig) const;
  [[nodiscard]] std::uint64_t completed_total() const;

  ShardedConfig cfg_;

  /// Shared snapshot context: owned unless the caller installed one via
  /// cfg.device.snapshots (then `snaps_` aliases it). Declared before
  /// `shards_` so it outlives the devices, whose destructors still
  /// checkpoint through the shared epoch source.
  std::unique_ptr<ftl::SnapshotContext> owned_snaps_;
  ftl::SnapshotContext* snaps_ = nullptr;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// Array-iterator table. The mutex serializes cursor advancement —
  /// concurrent next() calls on different handles take worker round
  /// trips one at a time, which keeps the cursor logic trivially safe.
  std::mutex iter_mu_;
  std::unordered_map<std::uint64_t, ArrayIter> array_iters_;
  std::uint64_t next_iter_handle_ = 1;

  /// Front-end-side metrics (`frontend.*`): striped counters, so the
  /// many producer threads and the caller of the sync verbs never
  /// contend. Overlaid onto the merged shard view by metrics_snapshot().
  obs::MetricsRegistry front_metrics_;
  obs::Counter* fe_puts_ = nullptr;    ///< frontend.puts (sync + async)
  obs::Counter* fe_gets_ = nullptr;    ///< frontend.gets
  obs::Counter* fe_dels_ = nullptr;    ///< frontend.dels
  obs::Counter* fe_exists_ = nullptr;  ///< frontend.exists
  obs::Counter* fe_barriers_ = nullptr;  ///< frontend.barriers (call_all)
};

}  // namespace rhik::shard
