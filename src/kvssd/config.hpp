// Emulated KVSSD device configuration.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/sim_clock.hpp"
#include "flash/geometry.hpp"
#include "flash/latency.hpp"
#include "ftl/page_allocator.hpp"
#include "index/mlhash/mlhash_index.hpp"
#include "index/rhik/config.hpp"
#include "obs/trace.hpp"

namespace rhik::ftl {
struct SnapshotContext;
}

namespace rhik::kvssd {

enum class IndexKind : std::uint8_t {
  kRhik,    ///< the paper's re-configurable two-level hash index
  kMlHash,  ///< baseline multi-level hash index (Samsung KVSSD style)
};

/// Index checkpointing + delta journaling (DESIGN.md §8). When enabled, a
/// tail region of the device is reserved for two alternating checkpoint
/// slots plus a journal ring, and `KvssdDevice::recover` restores the
/// index from the newest valid checkpoint + journal tail instead of
/// scanning every programmed page (falling back to the full scan when
/// both slots are corrupt).
struct CheckpointConfig {
  bool enabled = false;
  /// Erase blocks per checkpoint slot (two slots are reserved).
  std::uint32_t slot_blocks = 1;
  /// Erase blocks for the index-delta journal ring.
  std::uint32_t journal_blocks = 2;
  /// A checkpoint is started once this many pages were programmed since
  /// the last durable checkpoint. 0 = only explicit / destructor-time
  /// checkpoints.
  std::uint64_t dirty_pages = 4096;
  /// Checkpoint payload pages programmed per foreground-op pump step
  /// (incremental, like RHIK's pump_migration).
  std::uint32_t pump_pages = 8;
};

/// Garbage collection & wear leveling (DESIGN.md §9). The device default
/// is the hot/cold-aware incremental collector; set `policy = kGreedy`,
/// `hot_cold_separation = false` and `background_free_blocks = 0` to get
/// the original synchronous greedy reclaim back.
struct GcConfig {
  /// Victim selection: greedy least-live-bytes, or cost-benefit
  /// (1-u)/(2u)·age with an erase-count wear tiebreak.
  ftl::GcPolicy policy = ftl::GcPolicy::kCostBenefit;
  /// Steer GC-relocated (cold) pairs and fresh (hot) writes into
  /// separate open blocks (HashKV-style separation).
  bool hot_cold_separation = true;
  /// Background GC engages when the free pool drops below this many
  /// blocks (should sit above gc_reserve_blocks so foreground reclaim
  /// stays the exception). 0 disables background quanta entirely.
  std::uint32_t background_free_blocks = 8;
  /// Victim pages relocated per background quantum (`gc_quantum_pages`
  /// knob): bounds the work injected into one idle window.
  std::uint32_t quantum_pages = 32;
  /// Static wear pass triggers when max/mean block erase count exceeds
  /// this ratio (`wear_leveling_threshold` knob); <= 0 disables it.
  double wear_leveling_threshold = 1.5;
  /// Background ticks between static-wear checks.
  std::uint32_t wear_check_quanta = 64;
};

struct DeviceConfig {
  flash::Geometry geometry{};  ///< paper default: 32 KiB pages, 256/block
  flash::NandLatency latency = flash::NandLatency::kvemu_defaults();

  IndexKind index_kind = IndexKind::kRhik;
  index::RhikConfig rhik{};
  index::MlHashConfig mlhash{};

  /// SSD DRAM budget for the index page cache (Fig. 5 uses 10 MB for a
  /// 10 GB device — 1 MB per GB).
  std::uint64_t dram_cache_bytes = 10 * 1024 * 1024;

  /// Blocks withheld for GC relocation headroom.
  std::uint32_t gc_reserve_blocks = 4;
  /// Foreground GC runs until this many free blocks exist.
  std::uint32_t gc_target_free_blocks = 6;
  /// GC policy, hot/cold separation, background scheduling and wear
  /// leveling (DESIGN.md §9).
  GcConfig gc{};

  // -- Command processing model (KVEMU-style IOPS model) ---------------------
  /// Fixed firmware + NVMe round-trip cost charged per command. In async
  /// mode this cost is pipelined across the queue depth.
  SimTime cmd_overhead_ns = 6 * kMicrosecond;
  /// Queue depth for asynchronous submission.
  std::uint32_t queue_depth = 64;
  /// Index-aware batch drain: execute queued async commands grouped by
  /// the index's locality bucket (sig & dir_mask for RHIK) so each
  /// record page is loaded once per group instead of once per op.
  /// Same-signature commands keep their submission order; per-op status,
  /// completion and latency semantics are unchanged.
  bool batch_drain_grouping = true;

  /// SNIA KV API key length cap.
  std::uint32_t max_key_size = 255;

  /// §VI extension: derive key signatures from a 4 B key-prefix hash plus
  /// a 4 B suffix hash, enabling prefix iteration.
  bool prefix_signatures = false;

  /// Observability: per-op stage metrics, trace-ring sampling and the
  /// periodic dump hook (see obs/trace.hpp for the knobs).
  obs::ObsConfig obs{};

  /// Index checkpointing for O(dirty) restart. Default off: recovery then
  /// always performs the full-device scan.
  CheckpointConfig checkpoint{};

  // -- MVCC snapshots (DESIGN.md §13) ----------------------------------------
  /// Shared epoch source + snapshot pin registry. Non-owning: the sharded
  /// array installs ONE context across every shard so a snapshot pins one
  /// device-global epoch. When null (the default) the device owns a
  /// private context — single-device snapshots still work.
  ftl::SnapshotContext* snapshots = nullptr;
  /// Budget for DRAM/flash bytes held only for pinned snapshots
  /// (superseded versions awaiting reclaim). When a mutation would push
  /// retention past this, the OLDEST pin is expired and its holder gets
  /// kSnapshotTooOld on next use — retryable with a fresh snapshot, and
  /// never torn data. 0 = unbounded.
  std::uint64_t snapshot_retention_bytes = 64ull * 1024 * 1024;
};

}  // namespace rhik::kvssd
