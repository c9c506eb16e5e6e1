// RHIK configuration and the paper's sizing equations. The directory's
// persistence is not configured here: its one durable copy is the device
// checkpoint's image (kvssd::CheckpointConfig, DESIGN.md §8).
#pragma once

#include <bit>
#include <cstdint>

#include "common/bytes.hpp"
#include "common/sim_clock.hpp"

namespace rhik::index {

struct RhikConfig {
  /// kh — key signature size in bytes (Eq. 1). 8 by default; 16 models
  /// the 128-bit signature alternative of §IV-A3 (halves R, shrinks the
  /// signature-collision probability).
  std::uint32_t sig_bytes = 8;
  /// ppa — physical page address size in bytes (Eq. 1).
  std::uint32_t ppa_bytes = 5;
  /// Hopscotch neighbourhood width H; hopinfo occupies H/8 bytes per
  /// record slot (Eq. 1, hi). Default 32 (§IV-A1).
  std::uint32_t hop_range = 32;
  /// Occupancy fraction that triggers doubling (§IV-A2; default 80%).
  double resize_threshold = 0.80;
  /// Anticipated number of keys for initial sizing (Eq. 2). 0 means a
  /// conservative minimal directory (one entry) that grows on demand.
  std::uint64_t anticipated_keys = 0;
  /// Hard ceiling on directory bits: a doubling that would exceed it is
  /// refused instead of growing. Updates of existing keys and inserts
  /// that still fit keep succeeding; a NEW key whose insert fails at the
  /// cap gets Status::kIndexFull (counted in op stats). Bucket ids must
  /// stay below the overflow bit, so values above 38 are clamped to 38.
  std::uint32_t max_dir_bits = 38;
  /// §VI extension: migrate incrementally instead of halting the queue.
  /// On by default (halt-free resizing, DESIGN.md §11); false restores
  /// the paper's stop-the-world doubling (Fig. 7).
  bool incremental_resize = true;
  /// §VI "hyper-local scaling" extension: instead of rejecting a key on
  /// an uncorrectable local collision, give the affected bucket a
  /// private overflow record page. Overflowed buckets cost up to TWO
  /// flash reads per lookup (the trade-off the ablation quantifies);
  /// resizing drains overflow pages back into primaries.
  bool local_overflow = false;
  /// Old-index buckets migrated per background maintenance quantum
  /// (pump_maintenance with budget 0) in incremental mode. Foreground
  /// gets/puts are not charged migration work; the device background
  /// pump drains the doubling in these bounded quanta.
  std::uint32_t incremental_batch = 4;
  /// CPU cost charged per record rearranged during migration (the
  /// signature-reuse re-bucketing work of §IV-A2).
  SimTime migrate_cpu_ns_per_record = 20;

  /// hi — hopinfo bytes per record (Eq. 1).
  [[nodiscard]] constexpr std::uint32_t hopinfo_bytes() const noexcept {
    return (hop_range + 7) / 8;
  }

  /// Eq. 1: R = ⌊ p / (kh + ppa + hi) ⌋ — records per record-layer page.
  /// With the paper defaults (p = 32 KiB, kh = 8, ppa = 5, hi = 4): 1927.
  [[nodiscard]] constexpr std::uint32_t records_per_page(
      std::uint32_t page_size) const noexcept {
    return page_size / (sig_bytes + ppa_bytes + hopinfo_bytes());
  }

  /// Eq. 2: D = anticipated keys / R, rounded up to a power of two so the
  /// directory can be addressed with the D least-significant signature
  /// bits. Returns the directory *bit count*.
  [[nodiscard]] constexpr std::uint32_t initial_dir_bits(
      std::uint32_t page_size) const noexcept {
    const std::uint32_t r = records_per_page(page_size);
    if (anticipated_keys == 0 || r == 0) return 0;
    const std::uint64_t entries = (anticipated_keys + r - 1) / r;
    return entries <= 1 ? 0 : 64 - std::countl_zero(entries - 1);
  }
};

}  // namespace rhik::index
