// RHIK — Re-configurable Hash-based Indexing for KVSSD (paper §IV).
//
// Two-level hash index:
//   * Directory layer: 2^D physical page addresses kept in SSD DRAM. The
//     D least-significant bits of the 64-bit key signature select the
//     directory entry. Its one durable copy is the image the device
//     checkpoint stores (serialize_image(), DESIGN.md §8); without
//     checkpointing a restart rebuilds it from the data log.
//   * Record layer: one fixed-size hopscotch table per flash page (R
//     records, Eq. 1), served from flash through a byte-budgeted DRAM
//     cache. Dirty tables are written back on eviction (log-style: a new
//     page is programmed, the directory entry is repointed, the old page
//     goes stale for GC).
//
// Any record lookup therefore costs at most ONE flash read — the record
// page — which is the paper's headline property.
//
// Resizing (§IV-A2): when global occupancy crosses the threshold the
// index doubles. Legacy stop-the-world mode migrates everything at once
// while the submission queue is held (the stall is measured for Fig. 7);
// incremental mode (§VI "real-time index scaling", the default) opens a
// migration window instead: foreground ops are routed to whichever
// generation still owns their bucket, and the window drains in bounded
// background quanta via pump_maintenance() (DESIGN.md §11).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/lru_cache.hpp"
#include "flash/nand.hpp"
#include "ftl/page_allocator.hpp"
#include "index/index.hpp"
#include "index/rhik/config.hpp"
#include "index/rhik/record_page.hpp"

namespace rhik::index {

class RhikIndex final : public IIndex {
 public:
  RhikIndex(flash::NandDevice* nand, ftl::PageAllocator* alloc, RhikConfig cfg,
            std::uint64_t cache_budget_bytes);

  // -- IIndex ---------------------------------------------------------------
  Status put(std::uint64_t sig, flash::Ppa ppa) override;
  Result<std::optional<flash::Ppa>> lookup(std::uint64_t sig) override;
  Status erase(std::uint64_t sig) override;
  [[nodiscard]] std::uint64_t size() const override { return num_keys_; }
  [[nodiscard]] std::uint64_t capacity() const override {
    return dir_size() * codec_.records_per_page();
  }
  [[nodiscard]] std::uint64_t dram_bytes() const override;
  Status flush() override;
  Status scan(const std::function<void(std::uint64_t, flash::Ppa)>& fn) override;
  /// Directory bucket: ops on the same bucket share one record page.
  [[nodiscard]] std::uint64_t locality_group(
      std::uint64_t sig) const noexcept override {
    return sig & dir_mask();
  }
  [[nodiscard]] const IndexOpStats& op_stats() const override { return stats_; }
  void reset_op_stats() override {
    stats_ = {};
    cache_.reset_stats();
  }

  // -- GcIndexHooks -----------------------------------------------------------
  Result<std::optional<flash::Ppa>> gc_lookup(std::uint64_t sig) override;
  Status gc_update_location(std::uint64_t sig, flash::Ppa new_ppa) override;
  bool gc_is_live_index_page(flash::Ppa ppa) const override;
  Status gc_relocate_index_page(flash::Ppa ppa) override;

  // -- Introspection ----------------------------------------------------------
  [[nodiscard]] std::uint32_t dir_bits() const noexcept { return dir_bits_; }
  [[nodiscard]] std::uint64_t dir_size() const noexcept {
    return std::uint64_t{1} << dir_bits_;
  }
  [[nodiscard]] std::uint32_t records_per_page() const noexcept {
    return codec_.records_per_page();
  }
  [[nodiscard]] const RhikConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const std::vector<ResizeEvent>& resize_history() const noexcept {
    return resize_history_;
  }
  [[nodiscard]] bool migration_active() const noexcept { return mig_.has_value(); }
  /// Buckets currently carrying an overflow page (§VI extension).
  /// Maintained as a counter on overflow create/drop so callers can poll
  /// it per-op without an O(dir_size) scan.
  [[nodiscard]] std::uint64_t overflow_pages() const noexcept {
#ifndef NDEBUG
    std::uint64_t n = 0;
    for (const auto p : ov_dir_) n += (p != flash::kInvalidPpa);
    assert(n == ov_pages_);
#endif
    return ov_pages_;
  }
  [[nodiscard]] const cache::CacheStats& cache_stats() const noexcept override {
    return cache_.stats();
  }

  // -- Checkpointing hooks (IIndex) ------------------------------------------
  void set_journal(IndexJournal* journal) override { journal_ = journal; }
  /// The directory image: dir bits, generation, key count and the
  /// primary and overflow PPAs of the current generation (the device
  /// checkpoint only takes one outside a migration).
  Status serialize_image(Bytes& out) override;
  /// Restores a flushed index from serialize_image()'s output.
  Status load_image(ByteSpan image) override;
  Status apply_journal_repoint(
      std::uint64_t slot_key, flash::Ppa ppa,
      const std::function<bool(flash::Ppa)>& data_durable = {}) override;
  Status apply_journal_resize(std::uint32_t new_gen,
                              std::uint32_t new_bits) override;
  Status apply_journal_migrate(std::uint64_t old_slot_key) override;
  Status apply_journal_put(std::uint64_t sig, flash::Ppa ppa) override;
  Status apply_journal_erase(std::uint64_t sig) override;
  Status recount_keys() override;
  [[nodiscard]] bool maintenance_active() const override {
    return migration_active();
  }
  bool pump_maintenance(std::uint32_t budget) override;

 private:
  /// Cache/owner key: generation in the top bits, bucket below. PPAs are
  /// 40-bit, so buckets are comfortably below 2^40. Bit 39 of the bucket
  /// field marks a per-bucket overflow table (hyper-local scaling, §VI).
  static constexpr std::uint64_t kOvBit = std::uint64_t{1} << 39;
  static constexpr std::uint64_t make_key(std::uint32_t gen, std::uint64_t bucket) {
    return (std::uint64_t{gen} << 40) | bucket;
  }
  static constexpr std::uint32_t key_gen(std::uint64_t key) {
    return static_cast<std::uint32_t>(key >> 40);
  }
  static constexpr std::uint64_t key_bucket(std::uint64_t key) {
    return key & ((std::uint64_t{1} << 40) - 1);
  }

  [[nodiscard]] std::uint64_t dir_mask() const noexcept { return dir_size() - 1; }

  /// Directory slot for a keyed bucket (primary or overflow) of the
  /// current generation or the migration source.
  flash::Ppa& dir_slot(std::uint32_t gen, std::uint64_t keyed_bucket);

  /// True if the bucket has an overflow table (persisted or cached).
  [[nodiscard]] bool has_overflow(std::uint32_t gen, std::uint64_t bucket);

  struct CachedTable;
  /// Read path: the cache entry for a bucket, loading it on a miss
  /// (counting flash reads into *reads). A miss on a verified page caches
  /// it undecoded; answer lookups on it with find_in().
  Result<CachedTable*> load_entry(std::uint32_t gen, std::uint64_t bucket,
                                  std::uint64_t* reads);
  /// Mutating and walking paths: as load_entry, then decodes the entry
  /// in place, so the returned table is the bucket's full DRAM table.
  Result<hash::HopscotchTable*> load_table(std::uint32_t gen, std::uint64_t bucket,
                                           std::uint64_t* reads);
  /// Builds an undecoded entry's table from its page image.
  Status decode_in_place(CachedTable& entry, std::uint32_t gen,
                         std::uint64_t bucket);
  /// Looks sig up in an entry in either state.
  Result<std::optional<flash::Ppa>> find_in(const CachedTable& entry,
                                            std::uint32_t gen, std::uint64_t bucket,
                                            std::uint64_t sig);

  /// Programs a table to a fresh index-zone page and repoints the
  /// directory entry; marks the previous page stale.
  Status write_table(std::uint32_t gen, std::uint64_t bucket,
                     const hash::HopscotchTable& table, bool for_gc);

  /// Which generation/bucket currently owns a signature: the migration
  /// source while its old bucket is unmigrated, else the current
  /// generation. Foreground ops target this home so a doubling charges
  /// them no migration work.
  struct Home {
    std::uint32_t gen;
    std::uint64_t bucket;
  };
  [[nodiscard]] Home window_home(std::uint64_t sig) const noexcept;

  /// Insert/update of sig->ppa in its home (primary or bucket-private
  /// overflow table); sets *existed to whether the signature was already
  /// mapped. No resize, no migration work.
  Status insert_at(const Home& home, std::uint64_t sig, flash::Ppa ppa,
                   bool* existed, std::uint64_t* reads);
  /// Removes sig from its home; sets *had.
  Status erase_at(const Home& home, std::uint64_t sig, bool* had,
                  std::uint64_t* reads);

  /// Splits one source bucket of a doubling into its two target buckets
  /// and persists them. Shared by both resize modes.
  Status migrate_bucket(std::uint64_t old_bucket);

  /// Moves the live directory into the migration snapshot and opens the
  /// doubled, empty new generation. Shared by maybe_resize and replay.
  void open_migration_window();
  /// Migrates up to `budget` pending source buckets.
  Status pump_migration(std::uint32_t budget);
  Status ensure_bucket_migrated(std::uint64_t old_bucket);
  void finish_migration();

  Status maybe_resize();
  /// True once the next doubling would exceed min(max_dir_bits, 38): the
  /// index can no longer grow, so a failed insert of a NEW key is
  /// kIndexFull (updates and fitting inserts still succeed).
  [[nodiscard]] bool growth_capped() const noexcept {
    return dir_bits_ + 1 > std::min(cfg_.max_dir_bits, 38u);
  }

  /// lookup() without op accounting (GC's lookups stay uncounted).
  Result<std::optional<flash::Ppa>> lookup_internal(std::uint64_t sig,
                                                    std::uint64_t* reads);

  flash::NandDevice* nand_;
  ftl::PageAllocator* alloc_;
  RhikConfig cfg_;
  RecordPageCodec codec_;

  std::uint32_t dir_bits_ = 0;
  std::uint32_t gen_ = 0;
  std::vector<flash::Ppa> dir_;
  /// Per-bucket overflow record pages (all kInvalidPpa unless the
  /// local_overflow extension engages).
  std::vector<flash::Ppa> ov_dir_;
  /// Count of non-invalid ov_dir_ entries (== overflow_pages()).
  std::uint64_t ov_pages_ = 0;

  /// A cached record page, in one of two states. Decoded: `table` is the
  /// bucket's table and `page` is empty. Undecoded: `page` views the
  /// bucket's live record page at `ppa` in NAND storage and `table` is
  /// only recycled storage. Undecoded entries answer lookups through
  /// RecordPageCodec::find and are decoded in place the first time a
  /// path mutates or walks them. The view outlives the call that read it
  /// (DESIGN.md §10): the page stays live while the directory slot points
  /// at it, and every path that repoints a slot or erases the page's
  /// block decodes or drops the entry first.
  struct CachedTable {
    hash::HopscotchTable table;
    ByteSpan page{};
    flash::Ppa ppa = flash::kInvalidPpa;
  };
  cache::LruCache<std::uint64_t, CachedTable> cache_;

  /// Owner of a live index-zone record page. `verified` is set once a
  /// full decode has validated the page image (NAND pages are
  /// program-once, so it stays valid): only verified pages are cached
  /// undecoded. Pages from write_table, load_image and unvetted
  /// journal repoints start unverified.
  struct PageOwner {
    std::uint64_t key = 0;  ///< owning (gen, bucket) key
    bool verified = false;
  };
  /// Live index-zone record pages -> owner.
  std::unordered_map<flash::Ppa, PageOwner> page_owner_;
  /// Marks a live page's image as validated by a full decode.
  void mark_verified(flash::Ppa ppa);

  std::uint64_t num_keys_ = 0;
  IndexOpStats stats_;
  std::vector<ResizeEvent> resize_history_;

  struct Migration {
    std::uint32_t old_bits = 0;
    std::uint32_t old_gen = 0;
    std::vector<flash::Ppa> old_dir;
    std::vector<flash::Ppa> old_ov;
    std::vector<bool> migrated;
    std::uint64_t next_bucket = 0;   ///< scan cursor over old buckets
    std::uint64_t pending = 0;       ///< old buckets not yet migrated
    // Snapshot for the ResizeEvent recorded at completion (Fig. 7).
    std::uint64_t keys_before = 0;
    std::uint64_t capacity_before = 0;
    SimTime start_time = 0;
  };
  std::optional<Migration> mig_;
  bool in_maintenance_ = false;  ///< guards reentrant resize/migration
  /// A kRecResize replayed since load_image(): journal repoints rejected
  /// by the durability vet must fall back to the full scan, because
  /// last-repoint-wins may have skipped a migration-target repoint whose
  /// source bucket a migrate record in the same tail retires — keeping
  /// the image's (empty) slot would lose pre-checkpoint mappings.
  bool replay_saw_resize_ = false;
  /// Delta-record sink for device-level checkpointing (may be null).
  IndexJournal* journal_ = nullptr;
};

}  // namespace rhik::index
