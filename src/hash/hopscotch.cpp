#include "hash/hopscotch.hpp"

#include <cassert>
#include <cstring>

namespace rhik::hash {

HopscotchTable::HopscotchTable(std::uint32_t capacity, std::uint32_t hop_range)
    : sigs_(capacity),
      ppas_(capacity),
      used_words_((capacity + 63) / 64, 0),
      hopinfo_(capacity, 0),
      capacity_(capacity),
      hop_range_(hop_range) {
  assert(capacity > 0);
  assert(hop_range >= 1 && hop_range <= 32);
  assert(hop_range <= capacity);
}

std::uint32_t HopscotchTable::probe(std::uint64_t sig, std::uint32_t home,
                                    std::uint32_t info) const {
  // A set hopinfo bit always covers a live slot (check_invariants), so
  // the signature compare alone decides. Bits ascend, so the first hit
  // is the first match in neighbourhood order.
  while (info != 0) {
    const auto bit = static_cast<std::uint32_t>(__builtin_ctz(info));
    info &= info - 1;
    std::uint32_t idx = home + bit;
    if (idx >= capacity_) idx -= capacity_;
    if (sigs_[idx] == sig) return idx;
  }
  return kNpos;
}

std::uint32_t HopscotchTable::find_free_from(std::uint32_t home) const noexcept {
  // Word-wise circular scan for the nearest empty slot at/after `home`:
  // same slot the old per-bit linear probe chose, ~64 slots per step.
  const auto nwords = static_cast<std::uint32_t>(used_words_.size());
  const std::uint32_t tail_bits = capacity_ & 63;  // valid bits in last word
  std::uint32_t w = home >> 6;
  std::uint64_t free_bits = ~used_words_[w] & (~std::uint64_t{0} << (home & 63));
  for (std::uint32_t visit = 0; visit <= nwords; ++visit) {
    std::uint64_t bits = free_bits;
    if (tail_bits != 0 && w == nwords - 1) {
      bits &= (std::uint64_t{1} << tail_bits) - 1;  // past-capacity bits aren't slots
    }
    if (bits != 0) {
      return (w << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
    }
    w = (w + 1 == nwords) ? 0 : w + 1;
    free_bits = ~used_words_[w];
  }
  return kNpos;
}

Status HopscotchTable::insert(std::uint64_t sig, std::uint64_t ppa) {
  const std::uint32_t home = home_bucket(sig);

  // Update in place if the signature is already present.
  const std::uint32_t present = probe(sig, home, hopinfo_[home]);
  if (present != kNpos) {
    ppas_[present] = ppa;
    return Status::kOk;
  }

  if (size_ == capacity_) return Status::kIndexFull;

  std::uint32_t free_idx = find_free_from(home);
  if (free_idx == kNpos) return Status::kIndexFull;
  std::uint32_t free_dist = dist(home, free_idx);

  // Hopscotch displacement: move the empty slot backwards until it lies
  // inside the home neighbourhood.
  while (free_dist >= hop_range_) {
    bool moved = false;
    // Consider buckets starting hop_range_-1 before the free slot.
    for (std::uint32_t back = hop_range_ - 1; back >= 1; --back) {
      const std::uint32_t cand_bucket = wrap(std::uint64_t{free_idx} + capacity_ - back);
      std::uint32_t cinfo = hopinfo_[cand_bucket];
      // Find the earliest occupied slot of cand_bucket closer than back.
      while (cinfo != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctz(cinfo));
        cinfo &= cinfo - 1;
        if (bit >= back) break;  // bits ascend; nothing closer remains
        const std::uint32_t victim = wrap(std::uint64_t{cand_bucket} + bit);
        if (!slot_used(victim)) continue;
        // Move victim into the free slot.
        sigs_[free_idx] = sigs_[victim];
        ppas_[free_idx] = ppas_[victim];
        set_used(free_idx);
        clear_used(victim);
        hopinfo_[cand_bucket] &= ~(1u << bit);
        hopinfo_[cand_bucket] |= (1u << back);
        free_idx = victim;
        free_dist = dist(home, free_idx);
        moved = true;
        break;
      }
      if (moved) break;
    }
    if (!moved) {
      // Displacement failed: uncorrectable collision, operation aborted
      // (paper §IV-A1). The caller counts these; Fig. 8 reports the rate.
      return Status::kCollisionAbort;
    }
  }

  sigs_[free_idx] = sig;
  ppas_[free_idx] = ppa;
  set_used(free_idx);
  hopinfo_[home] |= (1u << free_dist);
  ++size_;
  return Status::kOk;
}

std::optional<std::uint64_t> HopscotchTable::find(std::uint64_t sig) const {
  const std::uint32_t home = home_bucket(sig);
#if defined(__GNUC__) || defined(__clang__)
  // SoA splits sig and ppa onto different cache lines; start the ppa
  // line towards L1 while the signature compare runs (hits cluster at
  // the front of the neighbourhood).
  __builtin_prefetch(ppas_.data() + home);
#endif
  const std::uint32_t idx = probe(sig, home, hopinfo_[home]);
  if (idx == kNpos) return std::nullopt;
  return ppas_[idx];
}

bool HopscotchTable::erase(std::uint64_t sig) {
  const std::uint32_t home = home_bucket(sig);
  const std::uint32_t idx = probe(sig, home, hopinfo_[home]);
  if (idx == kNpos) return false;
  clear_used(idx);
  hopinfo_[home] &= ~(1u << dist(home, idx));
  --size_;
  return true;
}

void HopscotchTable::clear() {
  std::fill(used_words_.begin(), used_words_.end(), 0u);
  std::fill(hopinfo_.begin(), hopinfo_.end(), 0u);
  size_ = 0;
}

void HopscotchTable::reset_with_hopinfo(const std::uint8_t* info) {
  std::memcpy(hopinfo_.data(), info, hopinfo_.size() * sizeof(std::uint32_t));
  std::fill(used_words_.begin(), used_words_.end(), 0u);
  size_ = 0;
}

std::uint32_t HopscotchTable::probe_length(std::uint64_t sig) const {
  const std::uint32_t home = home_bucket(sig);
  std::uint32_t info = hopinfo_[home];
  std::uint32_t probes = 0;
  while (info != 0) {
    const auto bit = static_cast<std::uint32_t>(__builtin_ctz(info));
    info &= info - 1;
    ++probes;
    if (sigs_[wrap(std::uint64_t{home} + bit)] == sig) break;
  }
  return probes;
}

bool HopscotchTable::check_invariants() const {
  std::uint32_t live = 0;
  std::vector<bool> covered(capacity_, false);
  for (std::uint32_t b = 0; b < capacity_; ++b) {
    std::uint32_t info = hopinfo_[b];
    while (info != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctz(info));
      info &= info - 1;
      if (bit >= hop_range_) return false;
      const std::uint32_t idx = wrap(std::uint64_t{b} + bit);
      if (!slot_used(idx)) return false;      // bitmap points at a dead slot
      if (covered[idx]) return false;         // slot owned by two buckets
      covered[idx] = true;
      if (home_bucket(sigs_[idx]) != b) return false;  // wrong home
      ++live;
    }
  }
  if (live != size_) return false;
  for (std::uint32_t i = 0; i < capacity_; ++i) {
    if (slot_used(i) != covered[i]) return false;  // orphan slot
  }
  // Past-capacity bits in the last occupancy word must stay clear (the
  // free-slot word scan and for_each rely on it).
  if ((capacity_ & 63) != 0) {
    const std::uint64_t tail_mask = ~((std::uint64_t{1} << (capacity_ & 63)) - 1);
    if ((used_words_.back() & tail_mask) != 0) return false;
  }
  return true;
}

}  // namespace rhik::hash
