// Log-structured page allocation over the NAND array.
//
// Two append streams (KV data zone, index zone — paper Fig. 3) each own an
// active erase block and hand out pages strictly in programming order.
// The allocator also keeps the per-block live-byte accounting that GC uses
// for victim selection, and reserves a few blocks of headroom so GC
// relocation can always make progress (standard over-provisioning).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "flash/nand.hpp"
#include "ftl/layout.hpp"

namespace rhik::ftl {

/// GC victim-selection policy.
enum class GcPolicy : std::uint8_t {
  kGreedy,       ///< least live bytes (original synchronous collector)
  kCostBenefit,  ///< (1-u)/(2u) * age with an erase-count wear tiebreak
};

/// Block-state census (free + active + sealed + reserved == num_blocks).
struct BlockCounts {
  std::uint32_t free = 0;
  std::uint32_t active = 0;
  std::uint32_t sealed = 0;
  std::uint32_t reserved = 0;
};

class PageAllocator {
 public:
  /// `reserve_blocks` blocks are withheld from normal allocation so
  /// the garbage collector can always relocate live data.
  /// `reserved_tail_blocks` blocks at the *end* of the device are carved
  /// out entirely (checkpoint slots + journal ring); they never enter the
  /// free pool and are managed by their owner directly against the NAND.
  PageAllocator(flash::NandDevice* nand, std::uint32_t reserve_blocks = 4,
                std::uint32_t reserved_tail_blocks = 0);

  PageAllocator(const PageAllocator&) = delete;
  PageAllocator& operator=(const PageAllocator&) = delete;

  /// Next page of the stream's active block, opening a fresh block when
  /// the current one is full. `for_gc` allocations may dip into the GC
  /// reserve. Fails with kDeviceFull when no block is available.
  Result<flash::Ppa> allocate(Stream stream, bool for_gc = false);

  /// A physically contiguous run of `npages` pages within one erase
  /// block, for multi-page extents. Seals the current block (abandoning
  /// its unwritten tail) if it lacks room. npages must fit in a block.
  Result<flash::Ppa> allocate_extent(Stream stream, std::uint32_t npages,
                                     bool for_gc = false);

  /// Reports that the program of `ppa`, a page allocate() handed out,
  /// failed. The NAND programs a block's pages in order only, so no later
  /// page of that block can be programmed: the block is sealed and the
  /// stream's next allocation opens a fresh one.
  void program_failed(flash::Ppa ppa);

  // -- Liveness accounting ------------------------------------------------
  void add_live(flash::Ppa ppa, std::uint64_t bytes);
  void sub_live(flash::Ppa ppa, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t block_live_bytes(std::uint32_t block) const {
    return blocks_[block].live_bytes;
  }

  // -- GC support ----------------------------------------------------------
  /// Victim among sealed blocks, if any sealed block exists. kGreedy picks
  /// least live bytes; kCostBenefit maximizes (1-u)/(2u) * age (u = live
  /// utilization, age = allocation ticks since the block last took a
  /// write) and breaks near-ties (within 10% of the best score) toward
  /// the lower erase count, so reclamation pressure spreads wear.
  [[nodiscard]] std::optional<std::uint32_t> pick_victim(
      GcPolicy policy = GcPolicy::kGreedy) const;

  /// Erases the block and returns it to the free pool. The caller must
  /// have relocated all live data first.
  Status reclaim_block(std::uint32_t block);

  /// Recovery path: registers a block that already contains programmed
  /// pages (adopted NAND). The block is sealed — new writes go to fresh
  /// blocks; GC reclaims it once its live bytes justify it. Must be
  /// called before any allocation touches the block.
  Status adopt_block(std::uint32_t block, Stream stream, std::uint32_t pages_used);

  // -- Introspection --------------------------------------------------------
  [[nodiscard]] std::uint32_t free_blocks() const noexcept {
    return static_cast<std::uint32_t>(free_.size());
  }
  [[nodiscard]] std::uint32_t gc_reserve() const noexcept { return gc_reserve_; }
  /// True when normal allocation is at (or past) the reserve floor and the
  /// device should run GC before accepting more writes.
  [[nodiscard]] bool needs_gc() const noexcept { return free_.size() <= gc_reserve_; }

  [[nodiscard]] Stream block_stream(std::uint32_t block) const {
    return blocks_[block].stream;
  }
  [[nodiscard]] bool is_sealed(std::uint32_t block) const {
    return blocks_[block].state == BlockState::kSealed;
  }
  [[nodiscard]] bool is_free(std::uint32_t block) const {
    return blocks_[block].state == BlockState::kFree;
  }
  /// Pages handed out so far in `block` (valid parse range for GC scans).
  [[nodiscard]] std::uint32_t pages_used(std::uint32_t block) const {
    return blocks_[block].next_page;
  }
  /// Allocation tick at which `block` last received a page (cost-benefit
  /// age input; 0 for never-written blocks).
  [[nodiscard]] std::uint64_t write_stamp(std::uint32_t block) const {
    return blocks_[block].write_stamp;
  }
  /// Monotonic allocation tick (advances once per page handed out).
  [[nodiscard]] std::uint64_t alloc_seq() const noexcept { return alloc_seq_; }
  /// Exact block-state census (invariant checks).
  [[nodiscard]] BlockCounts block_counts() const noexcept;

  /// Wear-aware open-block selection: hot/index streams take the
  /// least-erased free block, the cold stream the most-erased one (cold
  /// blocks stay sealed longest, resting the worn cells). Off by default
  /// so allocation order stays byte-for-byte deterministic for the
  /// existing unit tests.
  void set_wear_aware(bool on) noexcept { wear_aware_ = on; }

  /// Upper bound on bytes still allocatable without reclaiming anything.
  [[nodiscard]] std::uint64_t free_bytes_estimate() const noexcept;

  /// First block of the reserved tail region; equals num_blocks when no
  /// tail is reserved. Recovery scans stop here.
  [[nodiscard]] std::uint32_t first_reserved_block() const noexcept {
    return static_cast<std::uint32_t>(blocks_.size()) - reserved_tail_;
  }
  [[nodiscard]] std::uint32_t reserved_tail_blocks() const noexcept {
    return reserved_tail_;
  }

  /// Invoked with the block id right before any erase issued through
  /// reclaim_block(). The checkpoint journal uses this to flush buffered
  /// delta records: a replayed mapping must never point into a block that
  /// was erased after the record was produced but before it was durable.
  void set_pre_erase_hook(std::function<void(std::uint32_t)> hook) {
    pre_erase_hook_ = std::move(hook);
  }

 private:
  enum class BlockState : std::uint8_t { kFree, kActive, kSealed, kReserved };

  struct BlockInfo {
    BlockState state = BlockState::kFree;
    Stream stream = Stream::kData;
    std::uint32_t next_page = 0;
    std::uint64_t live_bytes = 0;
    std::uint64_t write_stamp = 0;  ///< alloc tick of the latest page
  };

  /// Opens a fresh block for the stream; respects the GC reserve.
  Result<std::uint32_t> open_block(Stream stream, bool for_gc);
  void seal(std::uint32_t block);

  flash::NandDevice* nand_;
  std::uint32_t gc_reserve_;
  std::uint32_t reserved_tail_ = 0;
  bool wear_aware_ = false;
  std::uint64_t alloc_seq_ = 0;
  std::vector<BlockInfo> blocks_;
  std::deque<std::uint32_t> free_;
  std::function<void(std::uint32_t)> pre_erase_hook_;
  /// Active block per stream; kNoBlock until first allocation.
  static constexpr std::uint32_t kNoBlock = UINT32_MAX;
  std::uint32_t active_[kNumStreams] = {kNoBlock, kNoBlock, kNoBlock};
};

}  // namespace rhik::ftl
