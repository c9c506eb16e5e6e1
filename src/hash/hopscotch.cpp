#include "hash/hopscotch.hpp"

#include <atomic>
#include <cassert>
#include <cstring>

#if defined(RHIK_SIMD_AVX2)
#include <immintrin.h>
#elif defined(RHIK_SIMD_SSE2)
#include <emmintrin.h>
#endif

namespace rhik::hash {

namespace {

/// Process-wide runtime switch to the scalar probe; tests flip it
/// per-case to compare both paths in one binary.
std::atomic<bool> g_simd_enabled{true};

#if defined(RHIK_SIMD_AVX2)

constexpr std::uint32_t kSimdLanes = 4;

/// Non-wrapping neighbourhood probe: compare 4 stored signatures per
/// step, mask equal lanes by the hopinfo window, first hit wins. Lanes
/// past hop_range read slots inside the table (the caller guarantees
/// home + rounded-window <= capacity) and are masked off by `info`.
std::uint32_t probe_simd(const std::uint64_t* sigs, std::uint64_t sig,
                         std::uint32_t home, std::uint32_t info,
                         std::uint32_t width) {
  const __m256i needle = _mm256_set1_epi64x(static_cast<long long>(sig));
  for (std::uint32_t j = 0; j < width; j += 4) {
    const std::uint32_t grp = (info >> j) & 0xFu;
    if (grp == 0) continue;
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sigs + home + j));
    const auto eq = static_cast<std::uint32_t>(
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, needle))));
    const std::uint32_t hit = eq & grp;
    if (hit != 0) return home + j + static_cast<std::uint32_t>(__builtin_ctz(hit));
  }
  return UINT32_MAX;
}

#elif defined(RHIK_SIMD_SSE2)

constexpr std::uint32_t kSimdLanes = 2;

/// SSE2 has no 64-bit compare; compare 32-bit halves and AND each lane
/// with its swapped half so a lane is all-ones iff both halves matched.
std::uint32_t probe_simd(const std::uint64_t* sigs, std::uint64_t sig,
                         std::uint32_t home, std::uint32_t info,
                         std::uint32_t width) {
  const __m128i needle = _mm_set1_epi64x(static_cast<long long>(sig));
  for (std::uint32_t j = 0; j < width; j += 2) {
    const std::uint32_t grp = (info >> j) & 0x3u;
    if (grp == 0) continue;
    const __m128i v = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(sigs + home + j));
    const __m128i cmp32 = _mm_cmpeq_epi32(v, needle);
    const __m128i pair =
        _mm_and_si128(cmp32, _mm_shuffle_epi32(cmp32, _MM_SHUFFLE(2, 3, 0, 1)));
    const auto eq = static_cast<std::uint32_t>(
        _mm_movemask_pd(_mm_castsi128_pd(pair)));
    const std::uint32_t hit = eq & grp;
    if (hit != 0) return home + j + static_cast<std::uint32_t>(__builtin_ctz(hit));
  }
  return UINT32_MAX;
}

#endif

}  // namespace

const char* HopscotchTable::simd_backend() noexcept {
#if defined(RHIK_SIMD_AVX2)
  return "avx2";
#elif defined(RHIK_SIMD_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

void HopscotchTable::set_simd_enabled(bool on) noexcept {
  g_simd_enabled.store(on, std::memory_order_relaxed);
}

bool HopscotchTable::simd_enabled() noexcept {
  return g_simd_enabled.load(std::memory_order_relaxed);
}

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

std::uint32_t HopscotchTable::probe_scalar(std::uint64_t sig, std::uint32_t home,
                                           std::uint32_t info) const {
  // A set hopinfo bit always covers a live slot (check_invariants), so
  // the signature compare alone decides — exactly like the SIMD lanes.
  while (info != 0) {
    const auto bit = static_cast<std::uint32_t>(__builtin_ctz(info));
    info &= info - 1;
    const std::uint32_t idx = wrap(std::uint64_t{home} + bit);
    if (sigs_[idx] == sig) return idx;
  }
  return kNpos;
}

std::uint32_t HopscotchTable::probe(std::uint64_t sig, std::uint32_t home,
                                    std::uint32_t info) const {
#if defined(RHIK_SIMD_AVX2) || defined(RHIK_SIMD_SSE2)
  // Round the window up to whole vectors; the overshoot lanes are masked
  // by `info` but must still land inside the array. Neighbourhoods that
  // wrap past the tail (rare: the last H buckets) stay scalar.
  const std::uint32_t window = (hop_range_ + kSimdLanes - 1) & ~(kSimdLanes - 1);
  if (simd_enabled() && std::uint64_t{home} + window <= capacity_) {
    return probe_simd(sigs_.data(), sig, home, info, window);
  }
#endif
  return probe_scalar(sig, home, info);
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
