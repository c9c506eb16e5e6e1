#include "index/rhik/record_page.hpp"

#include <cassert>
#include <cstring>

namespace rhik::index {

RecordPageCodec::RecordPageCodec(const RhikConfig& cfg, std::uint32_t page_size)
    : cfg_(cfg), page_size_(page_size), r_(cfg.records_per_page(page_size)) {
  assert(r_ >= cfg_.hop_range);
}

void RecordPageCodec::encode(const hash::HopscotchTable& table, MutByteSpan page) const {
  assert(table.capacity() == r_);
  assert(page.size() >= page_size_);
  std::fill(page.begin(), page.begin() + page_size_, 0);

  // Hot path (default geometry: 8 B sig, 5 B ppa, 4 B hopinfo): walk the
  // occupancy words so only live slots are visited, and blit the hopinfo
  // array in one copy — the DRAM array is already the little-endian u32
  // sequence the page stores. The serializer used to touch all R slots.
  if (cfg_.sig_bytes == 8 && cfg_.ppa_bytes == 5 && cfg_.hopinfo_bytes() == 4) {
    std::uint8_t* const slots = page.data();
    const auto& words = table.used_words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t bits = words[w];
      while (bits != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const std::size_t i = (w << 6) + bit;
        const hash::Record rec = table.slot(static_cast<std::uint32_t>(i));
        std::uint8_t* const p = slots + i * 13;
        std::memcpy(p, &rec.sig, 8);
        std::memcpy(p + 8, &rec.ppa, 5);
      }
    }
    std::memcpy(slots + hop_off(0), table.hopinfo_words().data(),
                std::size_t{r_} * 4);
    return;
  }

  for (std::uint32_t i = 0; i < r_; ++i) {
    if (table.slot_used(i)) {
      const auto& rec = table.slot(i);
      put_u64(page, slot_off(i), rec.sig);
      put_u40(page, slot_off(i) + cfg_.sig_bytes, rec.ppa);
    }
    // hopinfo, little-endian truncated to hopinfo_bytes
    const std::uint32_t info = table.hopinfo(i);
    for (std::uint32_t b = 0; b < cfg_.hopinfo_bytes(); ++b) {
      page[hop_off(i) + b] = static_cast<std::uint8_t>(info >> (8 * b));
    }
  }
}

Status RecordPageCodec::decode(ByteSpan page, hash::HopscotchTable* out) const {
  assert(out != nullptr);
  if (page.size() < page_size_) return Status::kInvalidArgument;
  // Reuse the caller's table storage when the geometry matches; a fresh
  // make_table() would zero-initialize four arrays per decode.
  const bool reuse = out->capacity() == r_ && out->hop_range() == cfg_.hop_range;
  if (!reuse) *out = make_table();

  const std::uint32_t hb = cfg_.hopinfo_bytes();
  const std::size_t hop0 = hop_off(0);

  if (cfg_.sig_bytes == 8 && cfg_.ppa_bytes == 5 && hb == 4) {
    // Hot path: adopt the page's hopinfo region wholesale (it is already
    // the little-endian u32 array the table keeps in DRAM), then walk it
    // two buckets per 64-bit load so runs of empty buckets cost one
    // compare. Slots are still validated bit by bit as they load.
    out->reset_with_hopinfo(page.data() + hop0);
    const std::uint8_t* const slots = page.data();
    Status bad = Status::kOk;
    const auto load_bucket = [&](std::uint32_t bucket, std::uint32_t info) {
      while (info != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctz(info));
        info &= info - 1;
        if (bit >= cfg_.hop_range) { bad = Status::kCorruption; return false; }
        std::uint32_t idx = bucket + bit;
        if (idx >= r_) idx -= r_;
        hash::Record rec;
        std::memcpy(&rec.sig, slots + idx * 13, 8);
        rec.ppa = 0;
        std::memcpy(&rec.ppa, slots + idx * 13 + 8, 5);
        if (out->home_bucket(rec.sig) != bucket || out->slot_used(idx)) {
          bad = Status::kCorruption;
          return false;
        }
        out->load_slot(idx, rec, bucket);
      }
      return true;
    };
    std::uint32_t bucket = 0;
    for (; bucket + 2 <= r_; bucket += 2) {
      std::uint64_t two;
      std::memcpy(&two, page.data() + hop0 + std::size_t{bucket} * 4, 8);
      if (two == 0) continue;
#if defined(__GNUC__) || defined(__clang__)
      // The page is a cold zero-copy NAND view and records sit scattered
      // by hopinfo; start the slot lines of a populated bucket a few
      // steps ahead so its misses overlap this bucket's loads.
      if (bucket + 18 <= r_) {
        std::uint64_t ahead;
        std::memcpy(&ahead, page.data() + hop0 + std::size_t{bucket + 16} * 4, 8);
        if (ahead != 0) {
          __builtin_prefetch(slots + std::size_t{bucket + 16} * 13);
          __builtin_prefetch(slots + std::size_t{bucket + 16} * 13 + 64);
        }
      }
#endif
      if (!load_bucket(bucket, static_cast<std::uint32_t>(two)) ||
          !load_bucket(bucket + 1, static_cast<std::uint32_t>(two >> 32))) {
        return bad;
      }
    }
    if (bucket < r_ &&
        !load_bucket(bucket, get_u32(page, hop0 + std::size_t{bucket} * 4))) {
      return bad;
    }
    return Status::kOk;
  }

  if (reuse) out->clear();
  for (std::uint32_t bucket = 0; bucket < r_; ++bucket) {
    std::uint32_t info = hopinfo_at(page, bucket);
    while (info != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctz(info));
      info &= info - 1;
      if (bit >= cfg_.hop_range) return Status::kCorruption;
      std::uint32_t idx = bucket + bit;
      if (idx >= r_) idx -= r_;
      hash::Record rec;
      rec.sig = get_u64(page, slot_off(idx));
      rec.ppa = get_u40(page, slot_off(idx) + cfg_.sig_bytes);
      if (out->home_bucket(rec.sig) != bucket) return Status::kCorruption;
      if (out->slot_used(idx)) return Status::kCorruption;
      out->load_slot(idx, rec, bucket);
    }
  }
  return Status::kOk;
}

Result<std::optional<std::uint64_t>> RecordPageCodec::find(ByteSpan page,
                                                          std::uint64_t sig) const {
  if (page.size() < page_size_) return Status::kInvalidArgument;
  // Same neighbourhood order as HopscotchTable::find, so both return the
  // same slot; each visited slot passes decode's per-slot checks first.
  const std::uint32_t home = hash::home_bucket(sig, r_);
  std::uint32_t info = hopinfo_at(page, home);
  while (info != 0) {
    const auto bit = static_cast<std::uint32_t>(__builtin_ctz(info));
    info &= info - 1;
    if (bit >= cfg_.hop_range) return Status::kCorruption;
    std::uint32_t idx = home + bit;
    if (idx >= r_) idx -= r_;
    const std::uint64_t stored = get_u64(page, slot_off(idx));
    if (hash::home_bucket(stored, r_) != home) return Status::kCorruption;
    if (stored == sig) {
      return std::optional<std::uint64_t>(
          get_u40(page, slot_off(idx) + cfg_.sig_bytes));
    }
  }
  return std::optional<std::uint64_t>();
}

}  // namespace rhik::index
