// Fixed-capacity hopscotch hash table.
//
// This is the record-layer building block (§IV-A1): every record-layer
// page of RHIK is one independent, fixed-size hopscotch table with a
// per-bucket neighbourhood bitmap ("hopinfo", default H = 32). The table
// never grows — when a displacement chain cannot free a slot inside the
// neighbourhood, the insert fails with kCollisionAbort and the caller
// (the index) surfaces an uncorrectable-collision abort, exactly as the
// paper specifies. Global growth happens through the RHIK resize path,
// not inside a table.
//
// Storage is struct-of-arrays (DESIGN.md §10): signatures, ppas and
// word-packed occupancy bits live in separate contiguous arrays so the
// probe loop touches only the signature lane. Because a set hopinfo bit
// always points at a live slot (the check_invariants contract), a find
// compares only the slots its home bucket's hopinfo marks — stale
// signatures left behind by erase are never consulted.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.hpp"
#include "hash/murmur.hpp"

namespace rhik::hash {

/// Home bucket of `sig` in a table of `capacity` buckets (fixed
/// intra-table hash, §IV-A). The directory layer consumes the low D bits
/// of the signature, so this draws on independent bits: remix, then map
/// onto [0, capacity) with a multiply-shift (Lemire fastrange) — the
/// distribution of `% capacity` for two multiplies instead of a 64-bit
/// divide. Shared by HopscotchTable and the record-page codec, which
/// probes encoded pages without building a table.
[[nodiscard]] inline std::uint32_t home_bucket(std::uint64_t sig,
                                               std::uint32_t capacity) noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<unsigned __int128>(mix64(sig)) * capacity) >> 64);
}

/// One record: 64-bit key signature + physical page address.
/// On flash this occupies kh (8 B) + ppa (5 B) per Eq. 1; in DRAM the
/// fields live in separate SoA arrays and `Record` is the exchange type
/// used by for_each / slot / load_slot.
struct Record {
  std::uint64_t sig = 0;
  std::uint64_t ppa = 0;
};

class HopscotchTable {
 public:
  /// `capacity` = R, number of record slots (Eq. 1).
  /// `hop_range` = H, neighbourhood width in buckets (hopinfo bits).
  HopscotchTable(std::uint32_t capacity, std::uint32_t hop_range = 32);

  /// Inserts or updates the record for `sig`.
  /// Returns kCollisionAbort if the displacement search fails and
  /// kIndexFull if no empty slot exists at all.
  Status insert(std::uint64_t sig, std::uint64_t ppa);

  /// Looks up the ppa stored for `sig`. O(H) probes, all in this table.
  [[nodiscard]] std::optional<std::uint64_t> find(std::uint64_t sig) const;

  /// Removes the record for `sig`. Returns false if absent.
  bool erase(std::uint64_t sig);

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint32_t hop_range() const noexcept { return hop_range_; }
  [[nodiscard]] double occupancy() const noexcept {
    return capacity_ == 0 ? 0.0 : static_cast<double>(size_) / static_cast<double>(capacity_);
  }

  /// Visits every live record (migration path re-uses stored
  /// signatures). Templated visitor: the serialization/migration loops
  /// inline the body instead of paying a per-record indirect call.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < used_words_.size(); ++w) {
      std::uint64_t bits = used_words_[w];
      while (bits != 0) {
        const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        const std::size_t i = (w << 6) + bit;
        fn(Record{sigs_[i], ppas_[i]});
      }
    }
  }

  /// Bulk-loads from a snapshot; caller guarantees records fit. Used when
  /// deserializing a record page read from flash.
  void clear();

  /// Per-bucket hopinfo bitmap, exposed for serialization and invariant
  /// checks in tests.
  [[nodiscard]] std::uint32_t hopinfo(std::uint32_t bucket) const {
    return hopinfo_[bucket];
  }

  /// Slot accessor for serialization. A slot is live iff its bit is set
  /// in some bucket's hopinfo; `slot_used` tracks it directly.
  [[nodiscard]] Record slot(std::uint32_t i) const {
    return {sigs_[i], ppas_[i]};
  }
  [[nodiscard]] bool slot_used(std::uint32_t i) const {
    return (used_words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Raw slot writer for deserialization; does not run displacement
  /// logic. `bucket` is the home bucket whose hopinfo bit must cover `i`.
  /// Inline: the page decoder calls this once per stored record.
  void load_slot(std::uint32_t i, const Record& rec, std::uint32_t bucket) {
    assert(i < capacity_ && !slot_used(i));
    assert(dist(bucket, i) < hop_range_);
    sigs_[i] = rec.sig;
    ppas_[i] = rec.ppa;
    set_used(i);
    hopinfo_[bucket] |= (1u << dist(bucket, i));
    ++size_;
  }

  /// Deserialization fast path: resets occupancy and size, then adopts
  /// `info` (capacity() little-endian u32 bitmaps, any alignment) as the
  /// hopinfo array wholesale instead of zeroing it and re-OR-ing bit by
  /// bit. The caller walks the adopted bitmaps and re-populates the
  /// slots via load_slot, validating each bit as it goes.
  void reset_with_hopinfo(const std::uint8_t* info);

  /// Raw SoA views for the serialization fast path: word-packed
  /// occupancy bits (bit i of word i/64 = slot i live) and the
  /// per-bucket hopinfo array. Read-only; layouts match the DRAM
  /// representation, not the on-flash encoding.
  [[nodiscard]] const std::vector<std::uint64_t>& used_words() const noexcept {
    return used_words_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& hopinfo_words() const noexcept {
    return hopinfo_;
  }

  /// Home bucket for a signature in this table (hash::home_bucket).
  [[nodiscard]] std::uint32_t home_bucket(std::uint64_t sig) const noexcept {
    return hash::home_bucket(sig, capacity_);
  }

  /// Validates hopinfo/slot consistency; used by property tests.
  [[nodiscard]] bool check_invariants() const;

  /// Number of candidate slots a find(`sig`) examines (the full
  /// neighbourhood population on a miss). Bench introspection only; the
  /// hot probe keeps no counters.
  [[nodiscard]] std::uint32_t probe_length(std::uint64_t sig) const;

  /// Always "scalar": the one probe walks hopinfo bits. Kept for the
  /// repository benchmark's `host` line.
  [[nodiscard]] static const char* simd_backend() noexcept { return "scalar"; }

 private:
  static constexpr std::uint32_t kNpos = UINT32_MAX;

  [[nodiscard]] std::uint32_t wrap(std::uint64_t i) const noexcept {
    return static_cast<std::uint32_t>(i % capacity_);
  }
  /// Distance from bucket `from` to slot index `to` going forward.
  [[nodiscard]] std::uint32_t dist(std::uint32_t from, std::uint32_t to) const noexcept {
    return to >= from ? to - from : to + capacity_ - from;
  }

  void set_used(std::uint32_t i) noexcept {
    used_words_[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  void clear_used(std::uint32_t i) noexcept {
    used_words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }

  /// Index of the live slot holding `sig` inside `home`'s neighbourhood
  /// (`info` = hopinfo_[home]), or kNpos: one compare per marked slot.
  [[nodiscard]] std::uint32_t probe(std::uint64_t sig, std::uint32_t home,
                                    std::uint32_t info) const;

  /// Nearest free slot at or after `home` in circular order, or kNpos.
  [[nodiscard]] std::uint32_t find_free_from(std::uint32_t home) const noexcept;

  std::vector<std::uint64_t> sigs_;        ///< SoA: stored signatures
  std::vector<std::uint64_t> ppas_;        ///< SoA: parallel ppa lane
  std::vector<std::uint64_t> used_words_;  ///< word-packed occupancy bits
  std::vector<std::uint32_t> hopinfo_;
  std::uint32_t capacity_;
  std::uint32_t hop_range_;
  std::uint32_t size_ = 0;
};

}  // namespace rhik::hash
