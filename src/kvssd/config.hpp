// Emulated KVSSD device configuration.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "common/sim_clock.hpp"
#include "flash/geometry.hpp"
#include "flash/latency.hpp"
#include "ftl/gc.hpp"
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

/// SNIA KV API key length cap: the device rejects longer keys.
inline constexpr std::uint32_t kMaxKeySize = 255;

struct DeviceConfig {
  flash::Geometry geometry{};  ///< paper default: 32 KiB pages, 256/block
  flash::NandLatency latency = flash::NandLatency::kvemu_defaults();

  IndexKind index_kind = IndexKind::kRhik;
  index::RhikConfig rhik{};
  index::MlHashConfig mlhash{};

  /// SSD DRAM budget for the index page cache (Fig. 5 uses 10 MB for a
  /// 10 GB device — 1 MB per GB).
  std::uint64_t dram_cache_bytes = 10 * 1024 * 1024;

  /// GC policy, hot/cold separation, background scheduling and wear
  /// leveling (DESIGN.md §9).
  ftl::GcConfig gc{};

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
