#include "ftl/page_allocator.hpp"

#include <algorithm>
#include <cassert>

namespace rhik::ftl {

using flash::Ppa;

PageAllocator::PageAllocator(flash::NandDevice* nand, std::uint32_t reserve_blocks,
                             std::uint32_t reserved_tail_blocks)
    : nand_(nand),
      gc_reserve_(reserve_blocks),
      reserved_tail_(reserved_tail_blocks),
      blocks_(nand->geometry().num_blocks) {
  assert(nand_ != nullptr);
  assert(gc_reserve_ + reserved_tail_ < nand_->geometry().num_blocks);
  const std::uint32_t first_reserved =
      nand_->geometry().num_blocks - reserved_tail_;
  for (std::uint32_t b = 0; b < first_reserved; ++b) free_.push_back(b);
  for (std::uint32_t b = first_reserved; b < nand_->geometry().num_blocks; ++b) {
    blocks_[b].state = BlockState::kReserved;
  }
}

Result<std::uint32_t> PageAllocator::open_block(Stream stream, bool for_gc) {
  const std::size_t floor = for_gc ? 0 : gc_reserve_;
  if (free_.size() <= floor) return Status::kDeviceFull;
  auto it = free_.begin();
  if (wear_aware_) {
    // Cold data rarely churns, so a cold block keeps its erase count
    // frozen for a long time: park cold data on the MOST worn free block
    // (it rests) and hot/index data on the LEAST worn one (it keeps
    // cycling, catching up).
    const bool want_max = stream == Stream::kCold;
    for (auto cand = free_.begin(); cand != free_.end(); ++cand) {
      const std::uint64_t e = nand_->erase_count(*cand);
      const std::uint64_t best = nand_->erase_count(*it);
      if (want_max ? e > best : e < best) it = cand;
    }
  }
  const std::uint32_t b = *it;
  free_.erase(it);
  blocks_[b] = {BlockState::kActive, stream, 0, 0, alloc_seq_};
  return b;
}

void PageAllocator::seal(std::uint32_t block) {
  assert(blocks_[block].state == BlockState::kActive);
  blocks_[block].state = BlockState::kSealed;
  const auto s = static_cast<std::size_t>(blocks_[block].stream);
  if (active_[s] == block) active_[s] = kNoBlock;
}

Result<Ppa> PageAllocator::allocate(Stream stream, bool for_gc) {
  const auto s = static_cast<std::size_t>(stream);
  if (active_[s] == kNoBlock) {
    auto blk = open_block(stream, for_gc);
    if (!blk) return blk.status();
    active_[s] = *blk;
  }
  BlockInfo& info = blocks_[active_[s]];
  const Ppa ppa = flash::make_ppa(nand_->geometry(), active_[s], info.next_page);
  info.next_page++;
  info.write_stamp = ++alloc_seq_;
  if (info.next_page == nand_->geometry().pages_per_block) seal(active_[s]);
  return ppa;
}

Result<Ppa> PageAllocator::allocate_extent(Stream stream, std::uint32_t npages,
                                           bool for_gc) {
  const auto& g = nand_->geometry();
  if (npages == 0 || npages > g.pages_per_block) return Status::kInvalidArgument;
  const auto s = static_cast<std::size_t>(stream);
  if (active_[s] != kNoBlock &&
      blocks_[active_[s]].next_page + npages > g.pages_per_block) {
    // Not enough room in the active block: abandon its unwritten tail.
    seal(active_[s]);
  }
  if (active_[s] == kNoBlock) {
    auto blk = open_block(stream, for_gc);
    if (!blk) return blk.status();
    active_[s] = *blk;
  }
  BlockInfo& info = blocks_[active_[s]];
  const Ppa base = flash::make_ppa(g, active_[s], info.next_page);
  info.next_page += npages;
  alloc_seq_ += npages;
  info.write_stamp = alloc_seq_;
  if (info.next_page == g.pages_per_block) seal(active_[s]);
  return base;
}

void PageAllocator::program_failed(Ppa ppa) {
  const std::uint32_t block = flash::ppa_block(nand_->geometry(), ppa);
  if (blocks_[block].state == BlockState::kActive) seal(block);
}

void PageAllocator::add_live(Ppa ppa, std::uint64_t bytes) {
  blocks_[flash::ppa_block(nand_->geometry(), ppa)].live_bytes += bytes;
}

void PageAllocator::sub_live(Ppa ppa, std::uint64_t bytes) {
  auto& live = blocks_[flash::ppa_block(nand_->geometry(), ppa)].live_bytes;
  live = bytes > live ? 0 : live - bytes;
}

std::optional<std::uint32_t> PageAllocator::pick_victim(GcPolicy policy) const {
  if (policy == GcPolicy::kGreedy) {
    std::optional<std::uint32_t> best;
    std::uint64_t best_live = UINT64_MAX;
    for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
      if (blocks_[b].state != BlockState::kSealed) continue;
      if (blocks_[b].live_bytes < best_live) {
        best_live = blocks_[b].live_bytes;
        best = b;
      }
    }
    return best;
  }

  // Cost-benefit (Rosenblum & Ousterhout): benefit/cost = (1-u)/(2u)·age.
  // Reading costs u, writing back costs u again (hence 2u), and `age`
  // rewards blocks whose survivors have proven cold. The score saturates
  // for u == 0 blocks (free space for the price of one erase).
  const auto score_of = [&](std::uint32_t b) -> double {
    const double cap = static_cast<double>(nand_->geometry().block_bytes());
    const double u =
        std::min(1.0, static_cast<double>(blocks_[b].live_bytes) / cap);
    const double age =
        1.0 + static_cast<double>(alloc_seq_ - blocks_[b].write_stamp);
    if (u <= 0.0) return 1e18 * age;
    return (1.0 - u) / (2.0 * u) * age;
  };
  double best_score = -1.0;
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].state != BlockState::kSealed) continue;
    best_score = std::max(best_score, score_of(b));
  }
  if (best_score < 0.0) return std::nullopt;
  // Wear tiebreak: among candidates within 10% of the best score, take
  // the least-erased block so reclamation pressure levels wear.
  std::optional<std::uint32_t> best;
  std::uint64_t best_erase = UINT64_MAX;
  for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].state != BlockState::kSealed) continue;
    if (score_of(b) < best_score * 0.9) continue;
    const std::uint64_t e = nand_->erase_count(b);
    if (e < best_erase) {
      best_erase = e;
      best = b;
    }
  }
  return best;
}

BlockCounts PageAllocator::block_counts() const noexcept {
  BlockCounts c;
  for (const BlockInfo& b : blocks_) {
    switch (b.state) {
      case BlockState::kFree: c.free++; break;
      case BlockState::kActive: c.active++; break;
      case BlockState::kSealed: c.sealed++; break;
      case BlockState::kReserved: c.reserved++; break;
    }
  }
  return c;
}

Status PageAllocator::reclaim_block(std::uint32_t block) {
  if (block >= blocks_.size()) return Status::kInvalidArgument;
  if (blocks_[block].state != BlockState::kSealed) return Status::kInvalidArgument;
  if (pre_erase_hook_) pre_erase_hook_(block);
  if (Status s = nand_->erase_block(block); !ok(s)) return s;
  blocks_[block] = {};
  free_.push_back(block);
  return Status::kOk;
}

Status PageAllocator::adopt_block(std::uint32_t block, Stream stream,
                                  std::uint32_t pages_used) {
  // pages_used == 0 is legal: a block whose every programmed page was
  // torn by a power cut holds nothing parseable, but its write point is
  // non-zero, so it cannot rejoin the free list (in-order programming
  // would fail). It is adopted sealed with zero liveness — first in
  // line for GC.
  if (block >= blocks_.size() || pages_used > nand_->geometry().pages_per_block) {
    return Status::kInvalidArgument;
  }
  if (blocks_[block].state != BlockState::kFree) return Status::kInvalidArgument;
  const auto it = std::find(free_.begin(), free_.end(), block);
  if (it == free_.end()) return Status::kInvalidArgument;
  free_.erase(it);
  blocks_[block] = {BlockState::kSealed, stream, pages_used, 0};
  return Status::kOk;
}

std::uint64_t PageAllocator::free_bytes_estimate() const noexcept {
  const auto& g = nand_->geometry();
  std::uint64_t pages = std::uint64_t{g.pages_per_block} *
                        (free_.size() > gc_reserve_ ? free_.size() - gc_reserve_ : 0);
  for (std::size_t s = 0; s < kNumStreams; ++s) {
    if (active_[s] != kNoBlock) {
      pages += g.pages_per_block - blocks_[active_[s]].next_page;
    }
  }
  return pages * g.page_size;
}

}  // namespace rhik::ftl
