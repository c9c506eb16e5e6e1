// Serialization of record-layer hash tables to/from flash pages.
//
// A record-layer page is one independent hopscotch table (§IV-A): R slots
// of [key signature | PPA] followed by R hopinfo bitmaps. R follows Eq. 1
// exactly because the page carries no table header: its spare holds only
// the generic SpareTag, and occupancy is rebuilt from the hopinfo bitmaps.
// Empty slots' main-area bytes are irrelevant (left zeroed).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "hash/hopscotch.hpp"
#include "index/rhik/config.hpp"

namespace rhik::index {

class RecordPageCodec {
 public:
  explicit RecordPageCodec(const RhikConfig& cfg, std::uint32_t page_size);

  [[nodiscard]] std::uint32_t records_per_page() const noexcept { return r_; }

  /// Serializes a table into a page-size buffer. The table's capacity
  /// must equal records_per_page().
  void encode(const hash::HopscotchTable& table, MutByteSpan page) const;

  /// Rebuilds the table from a page image. Returns kCorruption on
  /// structurally invalid hopinfo.
  Status decode(ByteSpan page, hash::HopscotchTable* out) const;

  /// Looks `sig` up on the page image itself, without building a table:
  /// probes its home neighbourhood and applies decode's checks to every
  /// slot it visits (hopinfo bit below H, stored signature homed to the
  /// probed bucket), returning kCorruption where decode would. Only a
  /// full decode proves no slot is claimed by two buckets, so callers
  /// probe images that one decode has already validated.
  Result<std::optional<std::uint64_t>> find(ByteSpan page, std::uint64_t sig) const;

  /// Fresh empty table with this codec's geometry.
  [[nodiscard]] hash::HopscotchTable make_table() const {
    return hash::HopscotchTable(r_, cfg_.hop_range);
  }

 private:
  [[nodiscard]] std::size_t slot_off(std::uint32_t i) const noexcept {
    return std::size_t{i} * (cfg_.sig_bytes + cfg_.ppa_bytes);
  }
  [[nodiscard]] std::size_t hop_off(std::uint32_t i) const noexcept {
    return std::size_t{r_} * (cfg_.sig_bytes + cfg_.ppa_bytes) +
           std::size_t{i} * cfg_.hopinfo_bytes();
  }
  /// Bucket `i`'s hopinfo bitmap, stored little-endian in hopinfo_bytes().
  [[nodiscard]] std::uint32_t hopinfo_at(ByteSpan page, std::uint32_t i) const noexcept {
    std::uint32_t info = 0;
    std::memcpy(&info, page.data() + hop_off(i), cfg_.hopinfo_bytes());
    return info;
  }

  RhikConfig cfg_;
  std::uint32_t page_size_;
  std::uint32_t r_;
};

}  // namespace rhik::index
