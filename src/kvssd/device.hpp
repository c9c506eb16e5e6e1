// Emulated Key-Value SSD (paper §II, §IV-C).
//
// Wires the substrates together the way Fig. 3 draws them: NAND array,
// two allocation streams (KV zone / index zone), the log-structured KV
// data path, a pluggable index (RHIK or the multi-level baseline) behind
// a byte-budgeted DRAM cache, and the garbage collector.
//
// The command set mirrors the five vendor-specific NVMe commands of the
// Samsung KVSSD: put, get, delete, exist, iterate (§II-A). Commands can
// be issued synchronously or through the asynchronous submission queue
// (submit + drain, completions through the batch sink); async submission
// pipelines the fixed per-command overhead across the queue depth, which
// is how the emulator reproduces the sync/async throughput gap of Fig. 6.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "common/histogram.hpp"
#include "common/sim_clock.hpp"
#include "common/status.hpp"
#include "flash/nand.hpp"
#include "ftl/gc.hpp"
#include "ftl/kv_store.hpp"
#include "ftl/mvcc.hpp"
#include "ftl/page_allocator.hpp"
#include "index/index.hpp"
#include "kvssd/checkpoint.hpp"
#include "kvssd/config.hpp"
#include "kvssd/iterator.hpp"
#include "kvssd/recovery.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rhik::kvssd {

struct DeviceStats {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t deletes = 0;
  std::uint64_t exists = 0;
  std::uint64_t iterates = 0;
  std::uint64_t bytes_put = 0;
  std::uint64_t bytes_got = 0;
  std::uint64_t not_found = 0;
  std::uint64_t collision_rejects = 0;  ///< index collision aborts (§IV-A1)
  std::uint64_t device_full = 0;
  std::uint64_t gc_invocations = 0;

  /// Registers these counters into a metrics snapshot (`device.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("device.puts", puts);
    snap.add_counter("device.gets", gets);
    snap.add_counter("device.deletes", deletes);
    snap.add_counter("device.exists", exists);
    snap.add_counter("device.iterates", iterates);
    snap.add_counter("device.bytes_put", bytes_put);
    snap.add_counter("device.bytes_got", bytes_got);
    snap.add_counter("device.not_found", not_found);
    snap.add_counter("device.collision_rejects", collision_rejects);
    snap.add_counter("device.device_full", device_full);
    snap.add_counter("device.gc_invocations", gc_invocations);
  }
};

class KvssdDevice : public api::IKvsBackend {
 public:
  explicit KvssdDevice(DeviceConfig cfg);
  ~KvssdDevice() override;

  /// Power-loss recovery: rebuilds a device over the NAND array of a
  /// previous instance (see kvssd/recovery.hpp). The config's geometry
  /// must match the array's. The array is power-cycled first (volatile
  /// wear RAM and stats cleared; an attached fault injector re-powered),
  /// then the log is scanned — torn pages are detected by CRC and
  /// truncated. Anything that was only in the previous device's RAM
  /// write buffer is lost, as on real hardware. Scan details are
  /// reported through `stats_out` when non-null.
  static Result<std::unique_ptr<KvssdDevice>> recover(
      DeviceConfig cfg, std::unique_ptr<flash::NandDevice> nand,
      RecoveryStats* stats_out = nullptr);

  /// Relinquishes the NAND array (simulating power-off); the device must
  /// not be used afterwards. Call flush() first for clean shutdown.
  std::unique_ptr<flash::NandDevice> release_nand();

  KvssdDevice(const KvssdDevice&) = delete;
  KvssdDevice& operator=(const KvssdDevice&) = delete;

  // -- Synchronous KV command set (the api::IKvsBackend verb set) -------------
  Status put(ByteSpan key, ByteSpan value) override;
  Status get(ByteSpan key, Bytes* value_out) override;
  Status del(ByteSpan key) override;
  /// Membership by key signature only — probabilistic (§IV-A3): may
  /// report kOk for an absent key on a signature collision.
  Status exist(ByteSpan key) override;

  // -- MVCC snapshots (DESIGN.md §13) ----------------------------------------
  /// Pins the current epoch. Reads through the handle see exactly the
  /// device state as of the pin, until release_snapshot (or expiry by
  /// the retention budget / a power cycle → kSnapshotTooOld).
  Result<api::SnapshotHandle> open_snapshot() override;
  Status release_snapshot(const api::SnapshotHandle& snap) override;
  /// Point read as of the snapshot's epoch: serves the current version
  /// when its stamp is old enough, else the retainer's covering version.
  Status read_at(const api::SnapshotHandle& snap, ByteSpan key,
                 Bytes* value_out) override;

  // -- Iterator command set (§II-A; SNIA-style key handles) ------------------
  /// The one iterator (DESIGN.md §13): it streams keys only. Without
  /// `snap` the device pins a snapshot for the iterator's lifetime; with
  /// one, a key's value is one read_at away on the same pin.
  Result<std::uint64_t> kvs_open_iterator(ByteSpan prefix,
                                          const api::SnapshotHandle* snap) override;
  Status kvs_iterator_next(std::uint64_t handle, std::size_t max_keys,
                           std::vector<Bytes>* keys_out) override;
  Status kvs_close_iterator(std::uint64_t handle) override;

  // -- Asynchronous submission --------------------------------------------------
  /// Queues a command; it executes at the next drain() and completes
  /// through the sink (api::IKvsBackend).
  void submit(api::Command&& cmd) override {
    queue_.push_back({std::move(cmd), clock_.now()});
  }
  /// Executes all queued commands; returns how many completed. Each
  /// queue snapshot is one batch: one sink call, one mutation epoch. When
  /// DeviceConfig::batch_drain_grouping is set, commands are executed
  /// grouped by the index's locality bucket (stable within a group, so
  /// same-key commands keep submission order).
  std::size_t drain() override;
  void set_completion_sink(api::IKvsBackend::CompletionSink sink) override {
    sink_ = std::move(sink);
  }

  /// Persists buffered data and index state (and, with checkpointing
  /// enabled, the buffered index-delta journal records).
  Status flush() override;

  /// The one background pump: a GC quantum if reclamation is pending
  /// (DeviceConfig::gc), an index-migration quantum if a doubling is in
  /// flight, and the reclaim of retained versions below the pin floor.
  /// The device runs it after every foreground op and drained batch
  /// (outside the op's latency window, like the checkpoint pump); the
  /// sharded front-end's workers also call it while their submission
  /// ring is empty. Returns true when GC or migration work was done
  /// (callers may keep pumping until false).
  bool pump_background() override;

  /// Synchronously takes an index checkpoint (DESIGN.md §8). kUnsupported
  /// unless DeviceConfig::checkpoint.enabled; kBusy while the index is
  /// mid-maintenance (resize migration). The destructor also checkpoints,
  /// so a cleanly destroyed device always restarts on the fast path.
  Status checkpoint_now();
  Status checkpoint() override { return checkpoint_now(); }

  /// The checkpoint manager, or nullptr when checkpointing is disabled.
  [[nodiscard]] CheckpointManager* checkpoint_manager() noexcept {
    return ckpt_.get();
  }

  // -- Introspection ---------------------------------------------------------------
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] flash::NandDevice& nand() noexcept { return *nand_; }
  [[nodiscard]] index::IIndex& index() noexcept { return *index_; }
  [[nodiscard]] ftl::PageAllocator& allocator() noexcept { return *alloc_; }
  [[nodiscard]] ftl::FlashKvStore& store() noexcept { return *store_; }
  [[nodiscard]] ftl::GarbageCollector& gc() noexcept { return *gc_; }
  /// The snapshot context (device-owned, or the shared one installed via
  /// DeviceConfig::snapshots).
  [[nodiscard]] ftl::SnapshotContext& snapshots() noexcept { return *snaps_; }
  [[nodiscard]] const DeviceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const DeviceStats& stats() const noexcept { return stats_; }

  // -- Observability ---------------------------------------------------------------
  /// One coherent snapshot across every layer of this device: every
  /// component's stats — device, NAND, GC, data log, index, index cache,
  /// the fault injector when one is attached, the recovery scan when
  /// this device was recovered — the sim clock as max-merged gauges and,
  /// while ObsConfig::metrics is on, the per-op stage timers
  /// (`op.<verb>.<stage>`).
  [[nodiscard]] obs::MetricsSnapshot metrics_snapshot() const;
  obs::MetricsSnapshot metrics_snapshot() override {
    return static_cast<const KvssdDevice&>(*this).metrics_snapshot();
  }
  /// Recent sampled per-op traces (ObsConfig::trace_sample_every).
  [[nodiscard]] const obs::TraceRing& trace_ring() const noexcept {
    return trace_ring_;
  }
  /// Periodic sim-clock-driven exporter: with ObsConfig::dump_period_ns
  /// > 0, `fn` receives a fresh snapshot every period of simulated time
  /// (checked at op completion, so a dump may fire late, never early).
  using MetricsDumpFn =
      std::function<void(SimTime, const obs::MetricsSnapshot&)>;
  void set_metrics_dump(MetricsDumpFn fn);

  /// Number of live KV pairs (== index size).
  [[nodiscard]] std::uint64_t key_count() const { return index_->size(); }
  [[nodiscard]] std::uint64_t capacity_bytes() const {
    return nand_->geometry().capacity_bytes();
  }
  /// Bytes of live user data currently stored.
  [[nodiscard]] std::uint64_t live_bytes() const noexcept { return live_bytes_; }

  /// Key signature exactly as the device computes it (§IV-A).
  [[nodiscard]] std::uint64_t signature(ByteSpan key) const;
  /// Same computation without a device instance (the sharded front-end
  /// partitions by signature before any shard is consulted).
  [[nodiscard]] static std::uint64_t signature_for(const DeviceConfig& cfg,
                                                   ByteSpan key);

 private:
  /// Shared wiring; `nand` may be an adopted (recovered) array.
  KvssdDevice(DeviceConfig cfg, std::unique_ptr<flash::NandDevice> nand);

  struct QueuedOp {
    api::Command cmd;
    SimTime enqueue_ns = 0;  ///< submission time (trace queue-wait span)
  };

  Status put_locked(ByteSpan key, ByteSpan value);
  Status get_locked(ByteSpan key, Bytes* value_out);
  Status del_locked(ByteSpan key);

  /// Advances the global epoch and stamps this mutation batch with the
  /// new value. Called once per synchronous mutation and once per drain
  /// batch — ops of one batch share a stamp (DESIGN.md §13).
  void begin_mutation_batch() noexcept {
    mutation_epoch_ = snaps_->epochs.advance();
  }
  /// Overwrite/delete path: hands the dying version to the retainer when
  /// a pinned snapshot can read it, else surrenders its stale credit now.
  void retire_version(std::uint64_t sig, flash::Ppa ppa, std::uint64_t epoch,
                      std::uint64_t total_bytes);

  /// Charges the per-command cost; async commands amortize it over the
  /// queue depth.
  void charge_command(bool async);

  /// Foreground GC until kGcTargetFreeBlocks blocks are free, timed as
  /// the op's GC stage. kDeviceFull (nothing left to reclaim) reads as
  /// kOk: the caller's write decides whether the op still fits.
  Status reclaim();

  /// Connects the index's journal feed and the allocator's pre-erase
  /// flush to the checkpoint manager. Deferred until after recovery
  /// replay so the replay itself is not re-journaled.
  void enable_journaling();
  /// Checkpoint fast path: load the image, adopt blocks from write
  /// points alone, replay the journal tail. Any failure leaves the
  /// device partially mutated — the caller rebuilds it and full-scans.
  Status restore_from_checkpoint(const CheckpointManager::Found& found,
                                 RecoveryStats& stats);

  // -- Observability internals ------------------------------------------------
  /// One verb's stage distributions, exported as `op.<verb>.<stage>`.
  /// Plain histograms: only the device's owning thread records or reads
  /// them, like every other device counter.
  struct StageTimers {
    Histogram total_ns;
    Histogram queue_ns;
    Histogram index_ns;
    Histogram flash_ns;
    Histogram gc_ns;
    Histogram flash_reads;
    Histogram index_flash_reads;
  };
  /// Arms `tr` as the active trace (captures read-amp baselines).
  /// Returns false — and arms nothing — when obs metrics are off.
  bool obs_begin(obs::OpTrace& tr, obs::OpKind kind, SimTime exec_start,
                 SimTime enqueue_ns);
  /// Completes the active trace: records its verb's stage timers,
  /// samples the ring, and fires the periodic dump hook when due.
  void obs_finish(obs::OpTrace& tr, Status s);

  DeviceConfig cfg_;
  SimClock clock_;
  std::unique_ptr<flash::NandDevice> nand_;
  std::unique_ptr<ftl::PageAllocator> alloc_;
  std::unique_ptr<ftl::FlashKvStore> store_;
  std::unique_ptr<index::IIndex> index_;
  std::unique_ptr<ftl::GarbageCollector> gc_;
  /// Owned when DeviceConfig::snapshots is null; `snaps_` always valid.
  std::unique_ptr<ftl::SnapshotContext> owned_snaps_;
  ftl::SnapshotContext* snaps_ = nullptr;
  std::unique_ptr<ftl::VersionRetainer> retainer_;
  /// Epoch stamped on the current mutation batch (begin_mutation_batch).
  std::uint64_t mutation_epoch_ = 0;
  std::unique_ptr<CheckpointManager> ckpt_;
  /// Ghost pairs folded by the last fast restore, pending re-journaling.
  /// See restore_from_checkpoint.
  struct Rejournal {
    std::uint64_t sig;
    flash::Ppa ppa;
    bool tombstone;
  };
  std::vector<Rejournal> rejournal_;

  std::deque<QueuedOp> queue_;
  api::IKvsBackend::CompletionSink sink_;  ///< batch completion sink
  std::unique_ptr<IteratorManager> iter_mgr_;
  std::uint64_t live_bytes_ = 0;
  DeviceStats stats_;

  obs::TraceRing trace_ring_;
  /// Indexed by obs::OpKind; only put, get and del are traced.
  std::array<StageTimers, 3> stage_timers_;
  obs::OpTrace* active_trace_ = nullptr;  ///< stage scopes write here
  std::uint64_t op_seq_ = 0;
  MetricsDumpFn dump_fn_;
  SimTime next_dump_ns_ = 0;
  std::optional<RecoveryStats> recovered_;  ///< set by recover()
};

}  // namespace rhik::kvssd
