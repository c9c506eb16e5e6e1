// Tests for the multi-level hash baseline (the Fig. 5 comparator): level
// probing costs, capacity ceiling, no-resize behaviour.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "index/mlhash/mlhash_index.hpp"
#include "index_test_rig.hpp"

namespace rhik::index {
namespace {

using flash::Geometry;
using flash::NandLatency;
using testutil::mapped;

struct Rig : testutil::IndexRig<MlHashIndex, MlHashConfig> {
  explicit Rig(MlHashConfig cfg = {}, std::uint64_t cache_bytes = 1 << 20,
               std::uint32_t blocks = 256)
      : testutil::IndexRig<MlHashIndex, MlHashConfig>(cfg, cache_bytes, blocks) {}
};

TEST(MlHash, PutGetErase) {
  Rig rig;
  EXPECT_EQ(rig.index.put(10, 111), Status::kOk);
  ASSERT_TRUE(mapped(rig.index, 10).has_value());
  EXPECT_EQ(*mapped(rig.index, 10), 111u);
  EXPECT_FALSE(mapped(rig.index, 11).has_value());
  EXPECT_EQ(rig.index.erase(10), Status::kOk);
  EXPECT_EQ(rig.index.erase(10), Status::kNotFound);
}

TEST(MlHash, UpdateStaysAtItsLevel) {
  Rig rig;
  ASSERT_EQ(rig.index.put(42, 1), Status::kOk);
  ASSERT_EQ(rig.index.put(42, 2), Status::kOk);
  EXPECT_EQ(rig.index.size(), 1u);
  EXPECT_EQ(*mapped(rig.index, 42), 2u);
}

TEST(MlHash, LevelSizesAreGeometric) {
  MlHashConfig cfg;
  cfg.levels = 4;
  cfg.level0_pages = 2;
  Rig rig(cfg);
  EXPECT_EQ(rig.index.level_pages(0), 2u);
  EXPECT_EQ(rig.index.level_pages(1), 4u);
  EXPECT_EQ(rig.index.level_pages(2), 8u);
  EXPECT_EQ(rig.index.level_pages(3), 16u);
  // tiny pages: R = 240 records.
  EXPECT_EQ(rig.index.capacity(), (2u + 4 + 8 + 16) * 240);
}

TEST(MlHash, ForKeysSizesPyramid) {
  const auto cfg = MlHashConfig::for_keys(100000, 4096, 8);
  MlHashConfig check = cfg;
  // Total pages >= keys / R.
  std::uint64_t pages = 0;
  for (std::uint32_t l = 0; l < check.levels; ++l) pages += check.level0_pages << l;
  EXPECT_GE(pages * 240, 100000u);
}

TEST(MlHash, ColdLookupsCostUpToLevelsFlashReads) {
  MlHashConfig cfg;
  cfg.levels = 8;
  cfg.level0_pages = 2;
  Rig rig(cfg, /*cache_bytes=*/4096);  // 1-page cache: everything misses
  Rng rng(3);
  std::vector<std::uint64_t> sigs;
  // Fill enough that upper levels spill into lower ones.
  for (int i = 0; i < 3000; ++i) {
    rig.maybe_gc();
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) sigs.push_back(sig);
  }
  rig.index.reset_op_stats();
  Rng pick(5);
  for (int i = 0; i < 500; ++i) mapped(rig.index, sigs[pick.next_below(sigs.size())]);
  const auto& h = rig.index.op_stats().reads_per_lookup;
  EXPECT_GT(h.percentile(99), 1.0);  // multi-read lookups (vs RHIK's <= 1)
  EXPECT_LE(h.max(), 8u);

  // Negative lookups probe every level.
  rig.index.reset_op_stats();
  for (int i = 0; i < 100; ++i) mapped(rig.index, rng.next());
  EXPECT_GT(rig.index.op_stats().reads_per_lookup.mean(), 1.5);
}

TEST(MlHash, RejectsKeysWhenAllLevelsFull) {
  // The motivation-section behaviour (§III): a fixed pyramid supports
  // only a limited number of keys.
  MlHashConfig cfg;
  cfg.levels = 2;
  cfg.level0_pages = 1;  // capacity = 3 pages * 240
  Rig rig(cfg);
  Rng rng(4);
  std::uint64_t inserted = 0;
  std::uint64_t rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    const Status s = rig.index.put(rng.next(), i);
    if (ok(s)) {
      ++inserted;
    } else {
      ASSERT_EQ(s, Status::kIndexFull);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LE(inserted, rig.index.capacity());
  // Despite rejections, the index stays well below 100% occupancy
  // because per-page neighbourhoods fill unevenly.
  EXPECT_GT(inserted, rig.index.capacity() / 2);
}

TEST(MlHash, ScanVisitsEverything) {
  Rig rig;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) ref[sig] = i;
  }
  std::unordered_map<std::uint64_t, std::uint64_t> seen;
  ASSERT_EQ(rig.index.scan([&](std::uint64_t sig, flash::Ppa ppa) {
    seen[sig] = ppa;
  }), Status::kOk);
  EXPECT_EQ(seen, ref);
}

TEST(MlHash, GcHooks) {
  Rig rig;
  ASSERT_EQ(rig.index.put(77, 500), Status::kOk);
  const auto hit = rig.index.gc_lookup(77);
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, std::optional<flash::Ppa>(500));
  EXPECT_EQ(rig.index.gc_update_location(77, 600), Status::kOk);
  EXPECT_EQ(*mapped(rig.index, 77), 600u);
  EXPECT_EQ(rig.index.gc_update_location(78, 1), Status::kNotFound);
}

TEST(MlHash, DirtyPagesSurviveEvictionWriteback) {
  MlHashConfig cfg;
  cfg.levels = 4;
  cfg.level0_pages = 4;
  Rig rig(cfg, /*cache_bytes=*/2 * 4096);  // 2 cached pages
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(8);
  for (int i = 0; i < 2000; ++i) {
    rig.maybe_gc();
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) ref[sig] = i;
  }
  EXPECT_GT(rig.index.op_stats().flash_writes, 0u);
  rig.expect_no_lost_writebacks();
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(mapped(rig.index, sig).has_value());
    EXPECT_EQ(*mapped(rig.index, sig), ppa);
  }
}

TEST(MlHash, DramBytesCoverLevelDirectories) {
  MlHashConfig cfg;
  cfg.levels = 3;
  cfg.level0_pages = 2;
  Rig rig(cfg);
  EXPECT_EQ(rig.index.dram_bytes(), (2u + 4 + 8) * cfg.ppa_bytes);
}

TEST(MlHash, RandomOpsAgreeWithReference) {
  MlHashConfig cfg;
  cfg.levels = 6;
  cfg.level0_pages = 2;
  Rig rig(cfg, 4 * 4096);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(101);
  for (int step = 0; step < 20000; ++step) {
    rig.maybe_gc();
    const std::uint64_t sig = rng.next_below(4000) * 0x2545F491u + 3;
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 5) {
      const std::uint64_t ppa = rng.next_below(1 << 20);
      if (ok(rig.index.put(sig, ppa))) ref[sig] = ppa;
    } else if (action < 8) {
      const auto got = mapped(rig.index, sig);
      const auto it = ref.find(sig);
      if (it == ref.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, it->second);
      }
    } else {
      const bool had = ref.erase(sig) > 0;
      EXPECT_EQ(rig.index.erase(sig), had ? Status::kOk : Status::kNotFound);
    }
  }
  EXPECT_EQ(rig.index.size(), ref.size());
  rig.expect_no_lost_writebacks();
}

}  // namespace
}  // namespace rhik::index
