// Crash / power-loss recovery.
//
// The paper motivates storing key signatures alongside the data in every
// flash page precisely so that "efficient garbage collection and crash
// consistency algorithms" can reconstruct state from flash (§I). This
// module implements that reconstruction for the emulated device:
//
//  1. Allocator state is rebuilt from the spare-area tags: every block
//     with programmed pages is adopted as sealed; empty blocks are free.
//  2. The index is rebuilt from the data log alone. Head pages carry a
//     monotonically increasing sequence number; pairs are globally
//     ordered by (epoch, page seq, in-page offset) — epoch-major because
//     GC may relocate snapshot-retained OLD versions into new pages with
//     their original MVCC stamps — so the newest version of every
//     signature wins, and a newest-version tombstone (durable deletion
//     record) means the key is absent.
//  3. Old index-zone record pages are deliberately ignored: they carry
//     no live accounting after recovery, so GC reclaims them wholesale.
//     This also makes recovery immune to an interrupted RHIK resize:
//     old- and new-generation index pages alike are dead weight, and the
//     rebuilt index starts one clean generation.
//
// This full scan is the restart path whenever no device checkpoint
// restores (checkpointing disabled, no valid slot, or a journal tail
// that cannot replay), clean shutdowns included: the index keeps no
// directory copy of its own. With checkpointing enabled, recover() first
// tries the checkpoint image + journal tail (DESIGN.md §8).
//
// The scan assumes the crash may have happened mid-operation:
//
//  - Every page carries a controller CRC in its reserved spare tail
//    (flash::kSpareReservedTail). A page whose CRC fails — torn by a
//    power cut — TRUNCATES the block's log at that page: later pages of
//    the block are unreachable by the in-order programming discipline
//    anyway. Torn pages are never parsed, so garbage spare bytes cannot
//    masquerade as a valid tag.
//  - A head page whose spilling pair lacks intact continuation pages is
//    dropped the same way: the pair was never acknowledged, and adopting
//    the head would shadow an older complete version of the key.
//  - Interrupted GC leaves the same pair in both source and destination
//    blocks; sequence order picks one winner and the loser stays stale.
//  - Per-block erase counts (volatile wear RAM on real hardware) are
//    re-derived from the wear stamp in each block's first intact page.
//
// Whatever sat in the device's RAM write buffer at crash time was never
// programmed and is — correctly — not recovered.
#pragma once

#include <cstdint>

#include "common/status.hpp"
#include "flash/nand.hpp"
#include "ftl/kv_store.hpp"
#include "ftl/page_allocator.hpp"
#include "index/index.hpp"

namespace rhik::kvssd {

struct RecoveryStats {
  std::uint64_t blocks_adopted = 0;
  std::uint64_t data_pages_scanned = 0;
  std::uint64_t pairs_seen = 0;
  std::uint64_t tombstones_seen = 0;
  std::uint64_t keys_recovered = 0;
  std::uint64_t live_bytes = 0;  ///< live user data after recovery
  std::uint64_t max_seq = 0;
  /// Highest MVCC epoch stamped on any durable pair — the epoch source
  /// is raised past this after a full scan so epochs never regress.
  std::uint64_t max_epoch = 0;
  std::uint64_t torn_pages_dropped = 0;       ///< programmed pages failing CRC/structure
  std::uint64_t incomplete_extents_dropped = 0;  ///< valid heads with a torn/missing tail
  std::uint64_t wear_blocks_restored = 0;     ///< erase counts re-derived from spare stamps
  /// Adopted blocks erased during recovery because nothing in them was
  /// live: stale index generations, torn tails, superseded data. Swept
  /// before the index rebuild so the rebuild cannot run out of space.
  std::uint64_t dead_blocks_reclaimed = 0;

  // -- Checkpoint fast path (DESIGN.md §8) ----------------------------------
  /// NAND pages read by recovery (the O(dirty) vs O(device) figure).
  std::uint64_t pages_read = 0;
  /// 1 when the index was restored from a checkpoint + journal tail.
  std::uint64_t checkpoint_restored = 0;
  /// 1 whenever recovery full-scanned (checkpointing disabled, no valid
  /// slot, or a journal tail that could not replay).
  std::uint64_t full_scan_fallback = 0;
  std::uint64_t journal_pages_replayed = 0;
  std::uint64_t journal_records_replayed = 0;
  /// Version of the checkpoint restored (0 = none).
  std::uint64_t checkpoint_version = 0;

  /// Registers these counters into a metrics snapshot (`recovery.*`).
  /// Across shards they merge as MetricsSnapshot merges: counters sum,
  /// the sequence/epoch/version high-waters max.
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("recovery.blocks_adopted", blocks_adopted);
    snap.add_counter("recovery.data_pages_scanned", data_pages_scanned);
    snap.add_counter("recovery.pairs_seen", pairs_seen);
    snap.add_counter("recovery.tombstones_seen", tombstones_seen);
    snap.add_counter("recovery.keys_recovered", keys_recovered);
    snap.add_counter("recovery.torn_pages_dropped", torn_pages_dropped);
    snap.add_counter("recovery.incomplete_extents_dropped",
                     incomplete_extents_dropped);
    snap.add_counter("recovery.wear_blocks_restored", wear_blocks_restored);
    snap.add_counter("recovery.dead_blocks_reclaimed", dead_blocks_reclaimed);
    snap.add_counter("recovery.pages_read", pages_read);
    snap.add_counter("recovery.checkpoint_restored", checkpoint_restored);
    snap.add_counter("recovery.full_scan_fallback", full_scan_fallback);
    snap.add_counter("recovery.journal_pages_replayed", journal_pages_replayed);
    snap.add_counter("recovery.journal_records_replayed",
                     journal_records_replayed);
    snap.set_gauge("recovery.checkpoint_version",
                   static_cast<std::int64_t>(checkpoint_version),
                   obs::MergeMode::kMax);
    snap.add_counter("recovery.live_bytes", live_bytes);
    snap.set_gauge("recovery.max_seq", static_cast<std::int64_t>(max_seq),
                   obs::MergeMode::kMax);
    snap.set_gauge("recovery.max_epoch", static_cast<std::int64_t>(max_epoch),
                   obs::MergeMode::kMax);
  }
};

/// Scans the adopted NAND and reconstructs allocator, store sequence and
/// index state. `alloc`, `store` and `index` must be freshly constructed
/// over `nand` and untouched.
Result<RecoveryStats> recover_from_flash(flash::NandDevice& nand,
                                         ftl::PageAllocator& alloc,
                                         ftl::FlashKvStore& store,
                                         index::IIndex& index);

}  // namespace rhik::kvssd
