// Garbage collector (paper §IV-B).
//
// Victim blocks are chosen greedily by least live bytes, or — under
// GcPolicy::kCostBenefit — by the cost-benefit score with an erase-count
// wear tiebreak. For KV-zone blocks the collector scans each head page's
// key-signature information area and validates every pair against the
// global index: a pair is live iff the index still maps its signature to
// this extent's starting PPA. Each victim page is read once, and live
// pairs are copied out of that read (only a live extent's continuation
// pages are read again), relocated through the normal log write path
// (onto the cold stream when hot/cold separation is on) and the index
// is updated. Index-zone blocks hold only record pages (stale ones from
// write-backs and resizes, live ones the index still points at); they
// are validated and relocated through the owning index's hooks. A
// failed index lookup stops the collection with that error and leaves
// the victim unerased: a pair that may be live is never treated as
// stale.
//
// Every collection reaches its victim one way: the victim is started
// (its open write buffers persisted) and then stepped through its pages,
// and the step that relocates its last page erases it. A background
// quantum (background_tick()) is a step of at most GcConfig::quantum_pages
// pages, so the device can fold reclamation into idle windows instead of
// stalling a foreground write behind a whole-block relocation;
// collect_one() and the static wear pass take one step with no page
// limit. A partially collected victim is crash-safe by construction —
// relocations are flushed before the erase, and until the erase the
// originals remain the durable copies.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "common/status.hpp"
#include "flash/nand.hpp"
#include "ftl/kv_store.hpp"
#include "ftl/layout.hpp"
#include "ftl/page_allocator.hpp"
#include "obs/metrics.hpp"

namespace rhik::ftl {

class VersionRetainer;

/// Callbacks the index scheme provides so GC can validate and relocate.
class GcIndexHooks {
 public:
  virtual ~GcIndexHooks() = default;

  /// Current starting PPA for a key signature, nullopt if unmapped, or
  /// the error of a failed metadata read. Not counted as an index get.
  virtual Result<std::optional<flash::Ppa>> gc_lookup(std::uint64_t sig) = 0;

  /// Point the signature's record at the pair's new location.
  virtual Status gc_update_location(std::uint64_t sig, flash::Ppa new_ppa) = 0;

  /// Liveness of an index-zone record page.
  virtual bool gc_is_live_index_page(flash::Ppa ppa) const = 0;

  /// Rewrite a live index-zone page elsewhere and update internal
  /// pointers. The old page is considered stale afterwards.
  virtual Status gc_relocate_index_page(flash::Ppa ppa) = 0;
};

struct GcStats {
  std::uint64_t blocks_reclaimed = 0;
  std::uint64_t pairs_relocated = 0;
  std::uint64_t pages_read = 0;  ///< victim pages + live extents' continuation pages
  std::uint64_t index_pages_relocated = 0;
  std::uint64_t retained_relocated = 0;  ///< snapshot-retained version moves
  std::uint64_t bytes_relocated = 0;  ///< write amplification source
  std::uint64_t runs = 0;
  std::uint64_t background_quanta = 0;  ///< incremental work slices executed
  std::uint64_t wear_migrations = 0;    ///< static wear-leveling block moves

  /// Registers these counters into a metrics snapshot (`gc.*`).
  void publish(obs::MetricsSnapshot& snap) const {
    snap.add_counter("gc.blocks_reclaimed", blocks_reclaimed);
    snap.add_counter("gc.pairs_relocated", pairs_relocated);
    snap.add_counter("gc.pages_read", pages_read);
    snap.add_counter("gc.index_pages_relocated", index_pages_relocated);
    snap.add_counter("gc.retained_relocated", retained_relocated);
    snap.add_counter("gc.bytes_relocated", bytes_relocated);
    snap.add_counter("gc.runs", runs);
    snap.add_counter("gc.background_quanta", background_quanta);
    snap.add_counter("gc.wear_migrations", wear_migrations);
  }
};

/// The collector's one configuration (DESIGN.md §9); DeviceConfig::gc is
/// this struct. The defaults are the device's: cost-benefit victims,
/// hot/cold separation, background quanta and the static wear pass.
struct GcConfig {
  /// Victim selection: greedy least-live-bytes, or cost-benefit
  /// (1-u)/(2u)·age with an erase-count wear tiebreak.
  GcPolicy policy = GcPolicy::kCostBenefit;
  /// Steer GC-relocated (cold) pairs and fresh (hot) writes into
  /// separate open blocks (HashKV-style separation).
  bool hot_cold_separation = true;
  /// background_tick() starts reclaiming once the free pool drops below
  /// this many blocks (it should sit above the allocator's GC reserve so
  /// foreground reclaim stays the exception); 0 disables background
  /// quanta entirely.
  std::uint32_t background_free_blocks = 8;
  /// Victim pages relocated per background quantum: bounds the work
  /// injected into one idle window.
  std::uint32_t quantum_pages = 32;
  /// The static wear pass triggers when max/mean block erase count
  /// exceeds this ratio; > 0 also makes block opening wear-aware. <= 0
  /// disables both.
  double wear_leveling_threshold = 1.5;
  /// Background ticks between static-wear checks (the pass migrates a
  /// whole block, so it must stay rare).
  std::uint32_t wear_check_quanta = 64;
};

/// Max/mean block erase count over the first `nblocks` blocks (the log
/// region — the reserved checkpoint tail wears on its own schedule).
/// Returns 1.0 while no block has been erased.
double erase_spread(const flash::NandDevice& nand, std::uint32_t nblocks);

class GarbageCollector {
 public:
  /// Applies `cfg`'s stream and block-opening choices to the store and
  /// the allocator.
  GarbageCollector(flash::NandDevice* nand, PageAllocator* alloc,
                   FlashKvStore* store, GcIndexHooks* hooks, GcConfig cfg);

  /// Reclaims blocks until at least `target_free` blocks are free.
  /// Returns kDeviceFull when nothing reclaimable remains below the
  /// target: a second victim that frees no net block (one is tolerated).
  Status collect(std::uint32_t target_free);

  /// Reclaims exactly one victim block (finishing the background victim
  /// first if one is mid-flight). kDeviceFull if no victim exists.
  Status collect_one();

  /// Incremental background step: processes at most one quantum of
  /// victim pages (GcConfig::quantum_pages), finishing with the erase
  /// once the victim is fully relocated. Also runs the periodic static
  /// wear pass. Sets `*did_work` when anything was processed, so idle
  /// loops know whether to call again. No-op (kOk, no work) while the
  /// free pool sits above GcConfig::background_free_blocks.
  Status background_tick(bool* did_work = nullptr);

  /// True when a partially relocated background victim is in flight.
  [[nodiscard]] bool background_in_progress() const noexcept {
    return victim_.has_value();
  }
  /// True when the next background_tick() would find work to do.
  [[nodiscard]] bool background_pending() const noexcept {
    return cfg_.background_free_blocks != 0 &&
           (victim_.has_value() ||
            alloc_->free_blocks() < cfg_.background_free_blocks);
  }

  [[nodiscard]] const GcStats& stats() const noexcept { return stats_; }

  /// MVCC: when set, a pair is also live while the retainer holds it for
  /// a pinned snapshot. Such versions are relocated with their ORIGINAL
  /// epoch stamps (a relocation moves a version, it does not create one)
  /// and the retainer is repointed to the new location.
  void set_version_retainer(VersionRetainer* retainer) noexcept {
    retainer_ = retainer;
  }

 private:
  /// Relocates live contents of `block` starting at `*page`, at most
  /// `max_pages` pages; `*page` advances to the first unprocessed page.
  Status relocate_pages(std::uint32_t block, std::uint32_t* page,
                        std::uint32_t max_pages);
  /// Relocates the live pairs of the head page at `ppa`, copied out of
  /// `page`, the image relocate_pages() read.
  Status relocate_data_head(flash::Ppa ppa, ByteSpan page);
  /// Copies pair `p` out of victim head page `page` at `ppa`; only a
  /// spilling value's continuation pages are read (and counted).
  Status copy_live(flash::Ppa ppa, ByteSpan page, const ParsedPair& p,
                   Bytes* key, Bytes* value);
  /// Makes `block` the victim in flight, persisting any open write
  /// buffer that targets it first.
  Status start_victim(std::uint32_t block);
  /// Relocates at most `max_pages` further pages of the victim in
  /// flight, and erases it once its last page is relocated. A failure
  /// abandons the victim unerased.
  Status step_victim(std::uint32_t max_pages);
  /// Flushes relocation buffers and erases a fully relocated victim.
  Status finish_victim(std::uint32_t block, std::uint64_t pairs_before);
  /// Sealed low-wear block worth migrating, when spread exceeds the
  /// threshold; nullopt otherwise.
  [[nodiscard]] std::optional<std::uint32_t> wear_victim() const;

  flash::NandDevice* nand_;
  PageAllocator* alloc_;
  FlashKvStore* store_;
  GcIndexHooks* hooks_;
  VersionRetainer* retainer_ = nullptr;
  GcConfig cfg_;
  GcStats stats_;

  /// The victim in flight; only a background victim outlives the call
  /// that started it.
  struct InProgress {
    std::uint32_t block = 0;
    std::uint32_t next_page = 0;
    std::uint64_t pairs_before = 0;
  };
  std::optional<InProgress> victim_;
  std::uint32_t wear_check_countdown_ = 0;

  /// Every signature seen in the current victim's head pages. Checked
  /// against the hot write buffer at finish time: if the victim holds
  /// the durable copy of a signature whose newest (acknowledged)
  /// version is still buffered, the buffer is flushed before the erase
  /// — otherwise a power cut after the erase would destroy the only
  /// durable version. With the pre-separation shared buffer this held
  /// implicitly (the relocation flush persisted host writes too); with
  /// a dedicated cold stream it must be enforced explicitly.
  std::unordered_set<std::uint64_t> victim_sigs_;
};

}  // namespace rhik::ftl
