// Baseline: multi-level hash index (Samsung KVSSD style, paper §II-B and
// the 8-level comparator of Fig. 5).
//
// L levels of flash-resident record pages; a key hashes (with a per-level
// salt) to one page per level. Lookups probe level by level — each probe
// is a page access through the shared DRAM cache, so a cold lookup can
// cost up to L flash reads (vs RHIK's one). Inserts go to the first level
// with room. There is NO resizing: when every level's target page is
// full, the index rejects the key — reproducing the "limited number of
// keys" behaviour the paper measures on real hardware (§III).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/lru_cache.hpp"
#include "flash/nand.hpp"
#include "ftl/page_allocator.hpp"
#include "index/index.hpp"
#include "index/rhik/record_page.hpp"

namespace rhik::index {

struct MlHashConfig {
  std::uint32_t levels = 8;
  /// Record pages in level 0; level i holds level0_pages << i pages.
  std::uint64_t level0_pages = 4;
  std::uint32_t hop_range = 32;
  std::uint32_t sig_bytes = 8;
  std::uint32_t ppa_bytes = 5;

  /// Sizes level 0 so the whole pyramid holds ~`keys` records at 100%
  /// occupancy (levels sum to level0 * (2^L - 1) pages).
  static MlHashConfig for_keys(std::uint64_t keys, std::uint32_t page_size,
                               std::uint32_t levels = 8);
};

class MlHashIndex final : public IIndex {
 public:
  MlHashIndex(flash::NandDevice* nand, ftl::PageAllocator* alloc, MlHashConfig cfg,
              std::uint64_t cache_budget_bytes);

  // -- IIndex -----------------------------------------------------------------
  Status put(std::uint64_t sig, flash::Ppa ppa) override;
  Result<std::optional<flash::Ppa>> lookup(std::uint64_t sig) override;
  Status erase(std::uint64_t sig) override;
  [[nodiscard]] std::uint64_t size() const override { return num_keys_; }
  [[nodiscard]] std::uint64_t capacity() const override { return capacity_; }
  [[nodiscard]] std::uint64_t dram_bytes() const override;
  Status flush() override;
  Status scan(const std::function<void(std::uint64_t, flash::Ppa)>& fn) override;
  [[nodiscard]] const IndexOpStats& op_stats() const override { return stats_; }
  void reset_op_stats() override {
    stats_ = {};
    cache_.reset_stats();
  }

  // -- GcIndexHooks --------------------------------------------------------------
  Result<std::optional<flash::Ppa>> gc_lookup(std::uint64_t sig) override;
  Status gc_update_location(std::uint64_t sig, flash::Ppa new_ppa) override;
  bool gc_is_live_index_page(flash::Ppa ppa) const override;
  Status gc_relocate_index_page(flash::Ppa ppa) override;

  [[nodiscard]] const MlHashConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint64_t level_pages(std::uint32_t level) const {
    return dirs_[level].size();
  }
  [[nodiscard]] const cache::CacheStats& cache_stats() const noexcept override {
    return cache_.stats();
  }

  // -- Checkpointing hooks (IIndex) ------------------------------------------
  void set_journal(IndexJournal* journal) override { journal_ = journal; }
  Status serialize_image(Bytes& out) override;
  Status load_image(ByteSpan image) override;
  Status apply_journal_repoint(
      std::uint64_t slot_key, flash::Ppa ppa,
      const std::function<bool(flash::Ppa)>& data_durable = {}) override;
  Status recount_keys() override;

 private:
  static constexpr std::uint64_t make_key(std::uint32_t level, std::uint64_t page) {
    return (std::uint64_t{level} << 40) | page;
  }
  static constexpr std::uint32_t key_level(std::uint64_t key) {
    return static_cast<std::uint32_t>(key >> 40);
  }
  static constexpr std::uint64_t key_page(std::uint64_t key) {
    return key & ((std::uint64_t{1} << 40) - 1);
  }

  [[nodiscard]] std::uint64_t page_for(std::uint32_t level, std::uint64_t sig) const;

  Result<hash::HopscotchTable*> load_table(std::uint32_t level, std::uint64_t page,
                                           std::uint64_t* reads);
  Status write_table(std::uint32_t level, std::uint64_t page,
                     const hash::HopscotchTable& table, bool for_gc);

  /// Finds the level currently holding `sig`; probes levels in order.
  struct Located {
    std::uint32_t level;
    std::uint64_t page;
    flash::Ppa ppa;
  };
  Result<std::optional<Located>> locate(std::uint64_t sig, std::uint64_t* reads);

  flash::NandDevice* nand_;
  ftl::PageAllocator* alloc_;
  MlHashConfig cfg_;
  RecordPageCodec codec_;

  /// Per-level page tables (flash PPAs), DRAM resident.
  std::vector<std::vector<flash::Ppa>> dirs_;
  std::vector<std::uint64_t> salts_;
  std::uint64_t capacity_ = 0;

  struct CachedTable {
    hash::HopscotchTable table;
  };
  cache::LruCache<std::uint64_t, CachedTable> cache_;
  std::unordered_map<flash::Ppa, std::uint64_t> page_owner_;

  std::uint64_t num_keys_ = 0;
  IndexOpStats stats_;
  IndexJournal* journal_ = nullptr;
};

}  // namespace rhik::index
