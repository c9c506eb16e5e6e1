// Index checkpointing + delta journaling (DESIGN.md §8).
//
// A tail region of the device is controller-reserved and split into two
// alternating checkpoint *slots* plus a journal *ring*:
//
//   [ data / index zone ... | slot A | slot B | journal ring ]
//
// A checkpoint serializes the index's DRAM state (directory PPAs, key
// count) plus the allocator's per-block live-byte table into payload
// pages, then commits them with a single superblock page carrying a
// monotonically increasing version, a CRC over the payload, and the
// journal *mark* — the sequence number of the first journal page the
// checkpoint does NOT cover. Because the superblock is programmed last,
// a torn checkpoint is simply invisible: recovery picks the newest slot
// whose superblock and payload verify, replays journal pages >= its
// mark, and falls back to the full-device scan when neither slot is
// valid (or the journal tail has a gap). The payload's index image is
// the one durable copy of the index directory: the index itself writes
// none into its zone.
//
// On the write path the index reports every durable mapping change
// through the IndexJournal interface, and the device appends one
// located-delete record per deletion; records are buffered in RAM and
// flushed to journal pages when a page fills, on device flush(), and —
// crucially — before any block erase (a replayed mapping must never
// point into a block erased after the record was produced). Buffered
// records lost to a power cut correspond exactly to acked-but-unflushed
// operations, which the crash-consistency contract already allows to
// roll back.
//
// Checkpoints are triggered by a dirty-page threshold and pumped a few
// payload pages per foreground op (like RHIK's incremental resize), so
// foreground latency stays bounded.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "flash/nand.hpp"
#include "ftl/kv_store.hpp"
#include "ftl/page_allocator.hpp"
#include "index/index.hpp"
#include "kvssd/config.hpp"
#include "obs/metrics.hpp"

namespace rhik::kvssd {

struct CheckpointStats {
  std::uint64_t checkpoints_started = 0;
  std::uint64_t checkpoints_completed = 0;
  std::uint64_t checkpoints_failed = 0;
  std::uint64_t payload_pages_written = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_pages_written = 0;
  std::uint64_t journal_flushes = 0;
  std::uint64_t journal_forced_checkpoints = 0;  ///< ring-full forced
  std::uint64_t resizes_journaled = 0;  ///< resize + migrate records emitted
  std::uint64_t invalidations = 0;  ///< both slots erased (poison to full scan)
  std::uint64_t version = 0;        ///< newest durable checkpoint version

  /// Registers these counters into a metrics snapshot (`checkpoint.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("checkpoint.started", checkpoints_started);
    snap.add_counter("checkpoint.completed", checkpoints_completed);
    snap.add_counter("checkpoint.failed", checkpoints_failed);
    snap.add_counter("checkpoint.payload_pages_written", payload_pages_written);
    snap.add_counter("checkpoint.journal_records", journal_records);
    snap.add_counter("checkpoint.journal_pages_written", journal_pages_written);
    snap.add_counter("checkpoint.journal_flushes", journal_flushes);
    snap.add_counter("checkpoint.journal_forced_checkpoints",
                     journal_forced_checkpoints);
    snap.add_counter("checkpoint.resizes_journaled", resizes_journaled);
    snap.add_counter("checkpoint.invalidations", invalidations);
    snap.set_gauge("checkpoint.version", static_cast<std::int64_t>(version),
                   obs::MergeMode::kMax);
  }
};

class CheckpointManager final : public index::IndexJournal {
 public:
  /// Blocks the config carves out of the device tail (0 when disabled).
  static constexpr std::uint32_t reserved_blocks(const CheckpointConfig& cfg) {
    return cfg.enabled ? 2 * cfg.slot_blocks + cfg.journal_blocks : 0;
  }

  /// Journal record kinds (on-flash encoding). kRecDelAt is the one
  /// deletion record: the device appends it only after the tombstone
  /// write succeeded, and with flush_journal's store-first ordering a
  /// durable kRecDelAt implies a durable tombstone, so a fast restore
  /// honoring it can never disagree with a later full scan. kRecResize
  /// keys (new_gen << 32) | new_bits; kRecMigrate keys the retired
  /// source bucket's generation-tagged slot. Any other kind in a tail is
  /// corruption (full-scan fallback).
  static constexpr std::uint8_t kRecPut = 1;
  static constexpr std::uint8_t kRecRepoint = 3;
  static constexpr std::uint8_t kRecDelAt = 5;
  static constexpr std::uint8_t kRecResize = 6;
  static constexpr std::uint8_t kRecMigrate = 7;

  CheckpointManager(flash::NandDevice* nand, index::IIndex* index,
                    ftl::FlashKvStore* store, ftl::PageAllocator* alloc,
                    CheckpointConfig cfg, const std::uint64_t* live_bytes);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Scans the reserved region and adopts any existing checkpoint /
  /// journal state (version, durable mark, next journal sequence). Call
  /// once after construction, after any recovery replay has finished.
  void init_from_flash();

  /// Erases both checkpoint slots (and resets the durable mark), forcing
  /// the next recovery onto the full scan. This is the always-possible
  /// fallback when journal consistency can no longer be guaranteed, and
  /// the preparation step before the full-scan path re-checkpoints.
  void invalidate_checkpoints();

  /// Erases every journal ring block. Only legal when no checkpoint
  /// depends on the ring (after invalidate_checkpoints or right after a
  /// freshly completed checkpoint that marked past every written page).
  void reset_journal();

  // -- IndexJournal ---------------------------------------------------------
  void journal_put(std::uint64_t sig, flash::Ppa ppa) override;
  void journal_repoint(std::uint64_t slot_key, flash::Ppa ppa) override;
  void journal_resize(std::uint32_t new_gen, std::uint32_t new_bits) override;
  void journal_migrated(std::uint64_t old_slot_key) override;

  /// Deletion record the replay acts on; emitted by the device once the
  /// deletion's tombstone landed at `ppa` (see kRecDelAt above).
  void journal_del_located(std::uint64_t sig, flash::Ppa ppa);

  /// Writes buffered journal records to the ring. On failure (ring
  /// blocked behind the durable mark and a checkpoint is impossible right
  /// now) the buffer is retained and the error returned.
  Status flush_journal();

  /// Per-foreground-op hook: starts a checkpoint when the dirty-page
  /// threshold is crossed and pumps an in-flight one by cfg.pump_pages.
  void tick();

  /// Synchronous checkpoint: begins one (completing any in flight) and
  /// pumps it to durability. kBusy while index maintenance is active.
  Status checkpoint_now();

  [[nodiscard]] const CheckpointStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t durable_version() const noexcept { return version_; }

  /// Index-kind discriminator stored in the payload; restore refuses an
  /// image written by a different index implementation.
  void set_index_kind(std::uint32_t kind) noexcept { index_kind_ = kind; }

  /// MVCC: the payload records the epoch high-water at checkpoint time so
  /// a fast restore can re-seed the epoch source even when the ghost scan
  /// touches no data page (empty or all-marked device).
  void set_epoch_source(const ftl::EpochSource* epochs) noexcept {
    epochs_ = epochs;
  }

  // -- Restore support (static: runs before any manager exists) ------------
  struct Found {
    Bytes payload;
    std::uint64_t version = 0;
    std::uint64_t journal_mark = 0;
    std::uint32_t slot = 0;
  };
  /// Newest valid checkpoint across both slots, if any.
  static std::optional<Found> find_newest(flash::NandDevice& nand,
                                          const CheckpointConfig& cfg);

  struct JournalRecord {
    std::uint8_t kind = 0;
    std::uint64_t key = 0;
    flash::Ppa ppa = 0;
  };
  struct JournalTail {
    std::vector<JournalRecord> records;
    std::uint64_t pages = 0;
    std::uint64_t max_next_seq = 0;  ///< newest store seq recorded in the tail
    /// False when pages >= mark are missing (partially erased tail): the
    /// replay would be incomplete and recovery must fall back.
    bool contiguous = true;
  };
  /// Collects and orders the journal records with page sequence >= mark.
  static JournalTail read_journal_tail(flash::NandDevice& nand,
                                       const CheckpointConfig& cfg,
                                       std::uint64_t mark);

  /// Decoded checkpoint payload.
  struct Image {
    std::uint64_t version = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t live_bytes = 0;
    /// Epoch-source high-water at checkpoint time (0 = pre-MVCC image).
    std::uint64_t epoch = 0;
    std::uint32_t index_kind = 0;
    std::vector<std::uint64_t> block_live;  ///< per block below the region
    Bytes index_image;
  };
  static std::optional<Image> decode_payload(ByteSpan payload);

 private:
  struct Pending {
    Bytes payload;
    std::uint64_t version = 0;
    std::uint64_t mark = 0;
    std::uint32_t slot = 0;
    std::uint32_t next_page = 0;  ///< payload pages programmed so far
    bool erased = false;          ///< slot blocks wiped
  };

  [[nodiscard]] std::uint32_t first_reserved() const noexcept;
  [[nodiscard]] std::uint32_t slot_base(std::uint32_t slot) const noexcept;
  [[nodiscard]] std::uint32_t journal_base() const noexcept;
  [[nodiscard]] std::uint32_t slot_pages() const noexcept;
  [[nodiscard]] std::uint32_t records_per_journal_page() const noexcept;

  void append(std::uint8_t kind, std::uint64_t key, flash::Ppa ppa);
  /// Makes the next journal ring block writable (erasing it when its
  /// contents are no longer needed; forcing a checkpoint / invalidating
  /// the slots otherwise).
  Status rotate_journal();
  Status begin();
  Status pump(std::uint32_t budget);
  Bytes build_payload(std::uint64_t version) const;
  [[nodiscard]] std::uint64_t dirty_pages_now() const noexcept;

  flash::NandDevice* nand_;
  index::IIndex* index_;
  ftl::FlashKvStore* store_;
  ftl::PageAllocator* alloc_;
  CheckpointConfig cfg_;
  const std::uint64_t* live_bytes_;
  std::uint32_t index_kind_ = 0;
  const ftl::EpochSource* epochs_ = nullptr;

  std::uint64_t version_ = 0;        ///< newest durable checkpoint version
  std::uint64_t durable_mark_ = 0;   ///< its journal mark
  std::uint32_t active_slot_ = 1;    ///< slot holding the newest checkpoint
  bool any_durable_ = false;

  std::vector<JournalRecord> buffer_;
  std::uint64_t next_page_seq_ = 1;
  std::uint32_t jcur_ = 0;                 ///< ring block index being appended
  std::vector<std::uint64_t> jmax_seq_;    ///< max page seq per ring block
  std::uint64_t programs_baseline_ = 0;    ///< nand page_programs at last ckpt

  std::optional<Pending> pending_;
  CheckpointStats stats_;
  /// Guards against re-entry when begin()'s journal flush hits a full
  /// ring while a forced checkpoint is already resolving it.
  bool rotating_ = false;
};

}  // namespace rhik::kvssd
