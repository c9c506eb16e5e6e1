// Shared test fixture: an index over a tiny NAND device with a working
// garbage collector. Index-only workloads continuously retire record
// pages (every dirty write-back programs a new page and stales the old
// one), so long-running tests must reclaim — exactly as the device does.
#pragma once

#include <gtest/gtest.h>

#include <optional>

#include "common/sim_clock.hpp"
#include "flash/nand.hpp"
#include "ftl/gc.hpp"
#include "ftl/kv_store.hpp"
#include "ftl/page_allocator.hpp"

namespace rhik::testutil {

template <typename IndexT, typename ConfigT>
struct IndexRig {
  explicit IndexRig(ConfigT cfg = {}, std::uint64_t cache_bytes = 1 << 20,
                    std::uint32_t blocks = 128)
      : nand(flash::Geometry::tiny(blocks), flash::NandLatency::kvemu_defaults(),
             &clock),
        alloc(&nand, 2),
        store(&nand, &alloc),
        index(&nand, &alloc, cfg, cache_bytes),
        gc(&nand, &alloc, &store, &index,
           {.policy = ftl::GcPolicy::kGreedy,
            .hot_cold_separation = false,
            .background_free_blocks = 0,
            .wear_leveling_threshold = 0.0}) {}

  /// Foreground GC, as the device layer would run it before writes.
  void maybe_gc() {
    if (alloc.needs_gc()) gc.collect(alloc.gc_reserve() + 2);
  }

  /// No dirty table may ever be dropped: a healthy rig keeps this at 0.
  void expect_no_lost_writebacks() const {
    EXPECT_EQ(index.op_stats().writeback_failures, 0u);
  }

  SimClock clock;
  flash::NandDevice nand;
  ftl::PageAllocator alloc;
  ftl::FlashKvStore store;
  IndexT index;
  ftl::GarbageCollector gc;
};

/// The index's mapping for `sig` through its one lookup, lookup(). A
/// lookup error fails the calling test and reads as unmapped.
template <typename IndexT>
std::optional<flash::Ppa> mapped(IndexT& index, std::uint64_t sig) {
  const auto r = index.lookup(sig);
  EXPECT_TRUE(r) << "lookup of " << sig << " failed";
  if (!r) return std::nullopt;
  return *r;
}

}  // namespace rhik::testutil
