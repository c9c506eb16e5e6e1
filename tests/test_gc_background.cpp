// Incremental background GC, hot/cold separation and wear leveling
// (DESIGN.md §9): scheduling behavior of background_tick(), a structural
// invariant checker run under churn for BOTH victim policies, and a
// regression bound on the erase-count spread under a 90/10 skewed
// workload with the static wear pass on vs off.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "flash/address.hpp"
#include "ftl/gc.hpp"
#include "test_seed.hpp"

namespace rhik::ftl {
namespace {

using flash::Geometry;
using flash::NandLatency;
using flash::Ppa;

/// Minimal in-RAM index standing in for RHIK (same shape as test_ftl_gc).
class MockIndexHooks : public GcIndexHooks {
 public:
  Result<std::optional<Ppa>> gc_lookup(std::uint64_t sig) override {
    auto it = map.find(sig);
    if (it == map.end()) return std::optional<Ppa>(std::nullopt);
    return std::optional<Ppa>(it->second);
  }
  Status gc_update_location(std::uint64_t sig, Ppa new_ppa) override {
    map[sig] = new_ppa;
    return Status::kOk;
  }
  bool gc_is_live_index_page(Ppa) const override { return false; }
  Status gc_relocate_index_page(Ppa) override { return Status::kOk; }

  std::unordered_map<std::uint64_t, Ppa> map;
};

/// One FTL stack (NAND + allocator + store + collector) plus a reference
/// model, assembled per test so the GcConfig can vary.
struct Rig {
  explicit Rig(GcConfig cfg)
      : nand(Geometry::tiny(64), NandLatency::kvemu_defaults(), &clock),
        alloc(&nand, 2),
        store(&nand, &alloc),
        gc(&nand, &alloc, &store, &hooks, cfg) {}

  void put(std::uint64_t sig, const std::string& value) {
    const std::string key = "k" + std::to_string(sig);
    auto ppa = store.write_pair(sig, as_bytes(key), as_bytes(value));
    ASSERT_TRUE(ppa);
    if (auto it = expect.find(sig); it != expect.end()) {
      store.note_stale(hooks.map[sig],
                       FlashKvStore::pair_bytes(key.size(), it->second.size()));
    }
    hooks.map[sig] = *ppa;
    expect[sig] = value;
  }

  void del(std::uint64_t sig) {
    const auto it = expect.find(sig);
    ASSERT_NE(it, expect.end());
    const std::string key = "k" + std::to_string(sig);
    store.note_stale(hooks.map[sig],
                     FlashKvStore::pair_bytes(key.size(), it->second.size()));
    hooks.map.erase(sig);
    expect.erase(it);
  }

  /// Structural invariants that must hold at any point:
  ///   - the block-state census sums exactly to the device size;
  ///   - free blocks carry no liveness or write point;
  ///   - no index entry points into a free (erased) block or past a
  ///     block's write point, and every entry reads back the exact pair;
  ///   - when `quiescent` (no half-collected victim whose source pages
  ///     are still counted), total per-block live bytes equal the
  ///     reference model's byte total exactly.
  void check_invariants(bool quiescent) {
    const auto& g = nand.geometry();
    const BlockCounts c = alloc.block_counts();
    ASSERT_EQ(c.free + c.active + c.sealed + c.reserved, g.num_blocks);

    std::uint64_t live_sum = 0;
    for (std::uint32_t b = 0; b < g.num_blocks; ++b) {
      if (alloc.is_free(b)) {
        ASSERT_EQ(alloc.block_live_bytes(b), 0u) << "block " << b;
        ASSERT_EQ(alloc.pages_used(b), 0u) << "block " << b;
      }
      ASSERT_LE(alloc.block_live_bytes(b), g.block_bytes()) << "block " << b;
      live_sum += alloc.block_live_bytes(b);
    }

    std::uint64_t expect_sum = 0;
    for (const auto& [sig, value] : expect) {
      const std::string key = "k" + std::to_string(sig);
      expect_sum += FlashKvStore::pair_bytes(key.size(), value.size());
      const auto it = hooks.map.find(sig);
      ASSERT_NE(it, hooks.map.end()) << sig;
      const std::uint32_t blk = flash::ppa_block(g, it->second);
      ASSERT_FALSE(alloc.is_free(blk)) << "sig " << sig << " -> erased block";
      ASSERT_LT(flash::ppa_page(g, it->second), alloc.pages_used(blk)) << sig;
      Bytes k, v;
      ASSERT_EQ(store.read_pair(it->second, sig, &k, &v), Status::kOk) << sig;
      ASSERT_EQ(rhik::to_string(k), key);
      ASSERT_EQ(rhik::to_string(v), value) << sig;
    }
    if (quiescent) {
      ASSERT_EQ(live_sum, expect_sum) << "live-byte conservation";
    }
  }

  SimClock clock;
  flash::NandDevice nand;
  PageAllocator alloc;
  FlashKvStore store;
  MockIndexHooks hooks;
  GarbageCollector gc;
  std::unordered_map<std::uint64_t, std::string> expect;
};

TEST(GcBackground, NoWorkAboveFreeBlockThreshold) {
  Rig rig({.policy = GcPolicy::kCostBenefit,
           .hot_cold_separation = false,
           .background_free_blocks = 2,
           .wear_leveling_threshold = 0.0});
  EXPECT_FALSE(rig.gc.background_pending());
  bool did_work = true;
  EXPECT_EQ(rig.gc.background_tick(&did_work), Status::kOk);
  EXPECT_FALSE(did_work);
  EXPECT_EQ(rig.gc.stats().background_quanta, 0u);
}

TEST(GcBackground, DisabledWhenFreeBlocksZero) {
  // background_free_blocks = 0 turns incremental GC off entirely, even
  // under pressure — the original synchronous-only configuration.
  Rig rig({.policy = GcPolicy::kGreedy,
           .hot_cold_separation = false,
           .background_free_blocks = 0,
           .wear_leveling_threshold = 0.0});
  const std::string value(700, 'd');
  std::uint64_t sig = 1;
  while (rig.alloc.free_blocks() > 3) rig.put(sig++, value);
  EXPECT_FALSE(rig.gc.background_pending());
  bool did_work = true;
  EXPECT_EQ(rig.gc.background_tick(&did_work), Status::kOk);
  EXPECT_FALSE(did_work);
}

TEST(GcBackground, CollectsOneVictimAcrossBoundedQuanta) {
  const GcConfig t{.policy = GcPolicy::kCostBenefit,
                   .hot_cold_separation = true,
                   .background_free_blocks = 64,
                   .quantum_pages = 2,
                   .wear_leveling_threshold = 0.0};
  Rig rig(t);
  // Stale-heavy churn: overwrite a small set until several blocks seal.
  const std::string value(600, 'q');
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t sig = 1; sig <= 20; ++sig) rig.put(sig, value);
  }
  ASSERT_TRUE(rig.alloc.pick_victim(t.policy).has_value());

  // One tick = one quantum: a 16-page victim cannot finish in 2 pages,
  // so the partially collected state must be visible in between.
  bool did_work = false;
  ASSERT_EQ(rig.gc.background_tick(&did_work), Status::kOk);
  EXPECT_TRUE(did_work);
  EXPECT_TRUE(rig.gc.background_in_progress());
  EXPECT_EQ(rig.gc.stats().blocks_reclaimed, 0u);
  rig.check_invariants(/*quiescent=*/false);  // mid-victim: relaxed

  int ticks = 1;
  while (rig.gc.background_in_progress() && ticks < 64) {
    ASSERT_EQ(rig.gc.background_tick(&did_work), Status::kOk);
    ++ticks;
  }
  EXPECT_FALSE(rig.gc.background_in_progress());
  EXPECT_GE(rig.gc.stats().blocks_reclaimed, 1u);
  EXPECT_GE(rig.gc.stats().background_quanta, 8u);  // 16 pages / 2 per tick
  rig.check_invariants(/*quiescent=*/true);
}

TEST(GcBackground, ForegroundCollectFinishesInFlightVictim) {
  Rig rig({.policy = GcPolicy::kCostBenefit,
           .hot_cold_separation = true,
           .background_free_blocks = 64,
           .quantum_pages = 2,
           .wear_leveling_threshold = 0.0});
  const std::string value(600, 'f');
  for (int round = 0; round < 40; ++round) {
    for (std::uint64_t sig = 1; sig <= 20; ++sig) rig.put(sig, value);
  }
  bool did_work = false;
  ASSERT_EQ(rig.gc.background_tick(&did_work), Status::kOk);
  ASSERT_TRUE(rig.gc.background_in_progress());

  // Foreground pressure arrives: collect_one() must finish the victim
  // already in flight (without re-scanning its processed pages) rather
  // than opening a second victim.
  const std::uint64_t reclaimed_before = rig.gc.stats().blocks_reclaimed;
  ASSERT_EQ(rig.gc.collect_one(), Status::kOk);
  EXPECT_FALSE(rig.gc.background_in_progress());
  EXPECT_EQ(rig.gc.stats().blocks_reclaimed, reclaimed_before + 1);
  rig.check_invariants(/*quiescent=*/true);
}

TEST(GcBackground, SkipsNearlyFullyLiveVictims) {
  // Background reclaim of a ~fully live block would churn relocation
  // writes forever on a genuinely full device; such victims are left to
  // foreground pressure (which reports kDeviceFull on no progress).
  const GcConfig t{.policy = GcPolicy::kCostBenefit,
                   .hot_cold_separation = false,
                   .background_free_blocks = 64,
                   .quantum_pages = 4,
                   .wear_leveling_threshold = 0.0};
  Rig rig(t);
  // 989-byte values with fixed 4-char keys pack exactly four pairs per
  // 4 KiB page (4094 of 4096 bytes used, epoch-stamped headers
  // included), so sealed blocks sit above the collector's 90%
  // utilization cutoff.
  const std::string value(989, 'L');
  std::uint64_t sig = 100;
  while (!rig.alloc.pick_victim(t.policy).has_value()) rig.put(sig++, value);
  // Everything stays live: the only victims are ~100% utilized.
  bool did_work = true;
  ASSERT_EQ(rig.gc.background_tick(&did_work), Status::kOk);
  EXPECT_FALSE(did_work);
  EXPECT_FALSE(rig.gc.background_in_progress());
  EXPECT_EQ(rig.gc.stats().blocks_reclaimed, 0u);
}

TEST(GcColdStream, CollectReachesTargetPastAVictimThatOpensABlock) {
  // No cold block is open yet, so relocating the first victim's few live
  // pairs opens one: that victim frees no net block. The next victims'
  // survivors fit in the same cold block, so collect() must go on to its
  // target instead of reporting kDeviceFull.
  Rig rig({.policy = GcPolicy::kGreedy,
           .hot_cold_separation = true,
           .background_free_blocks = 0,
           .wear_leveling_threshold = 0.0});
  const std::string value(900, 'v');
  std::uint64_t sig = 1;
  while (rig.alloc.free_blocks() > 8) rig.put(sig++, value);
  for (std::uint64_t s = 1; s < sig; ++s) {
    if (s % 8 != 0) rig.del(s);  // every sealed block stays mostly stale
  }
  const std::uint32_t free0 = rig.alloc.free_blocks();
  ASSERT_EQ(rig.gc.collect(free0 + 4), Status::kOk);
  EXPECT_GE(rig.alloc.free_blocks(), free0 + 4);
  EXPECT_EQ(rig.gc.stats().blocks_reclaimed, 5u);  // the first netted none
  ASSERT_EQ(rig.store.flush(), Status::kOk);
  rig.check_invariants(/*quiescent=*/true);
}

// The invariant-checker satellite: seeded churn with interleaved
// background quanta and foreground collects, invariants checked
// periodically and exactly at quiescent points — for BOTH policies and
// both buffer layouts.
class GcInvariantChurn
    : public ::testing::TestWithParam<std::pair<GcPolicy, bool>> {};

TEST_P(GcInvariantChurn, HoldUnderChurn) {
  const auto [policy, cold_separation] = GetParam();
  // A high free-block target on the 4 MiB device makes background GC
  // engage early in the churn instead of only near exhaustion.
  Rig rig({.policy = policy,
           .hot_cold_separation = cold_separation,
           .background_free_blocks = 48,
           .quantum_pages = 4,
           .wear_leveling_threshold = 0.0});
  const std::uint64_t seed = rhik::test::harness_seed(0x6C0DE);
  Rng rng(seed);
  const int key_space = 120;
  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t sig = 1 + rng.next_below(key_space);
    const std::string value(rng.next_range(60, 1100),
                            static_cast<char>('a' + sig % 26));
    rig.put(sig, value);
    ASSERT_EQ(rig.gc.background_tick(), Status::kOk)
        << "step " << step << " (seed 0x" << std::hex << seed << ")";
    if (rig.alloc.needs_gc()) {
      ASSERT_EQ(rig.gc.collect(4), Status::kOk)
          << "step " << step << " (seed 0x" << std::hex << seed << ")";
    }
    if (step % 500 == 499) {
      rig.check_invariants(/*quiescent=*/false);
    }
  }
  // Drain the in-flight victim so liveness accounting is exact, then run
  // the full checker including live-byte conservation.
  if (rig.gc.background_in_progress()) {
    ASSERT_EQ(rig.gc.collect_one(), Status::kOk);
  }
  ASSERT_EQ(rig.store.flush(), Status::kOk);
  rig.check_invariants(/*quiescent=*/true);
  EXPECT_GT(rig.gc.stats().blocks_reclaimed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GcInvariantChurn,
    ::testing::Values(std::make_pair(GcPolicy::kGreedy, false),
                      std::make_pair(GcPolicy::kGreedy, true),
                      std::make_pair(GcPolicy::kCostBenefit, false),
                      std::make_pair(GcPolicy::kCostBenefit, true)),
    [](const auto& info) {
      return std::string(info.param.first == GcPolicy::kGreedy ? "Greedy"
                                                               : "CostBenefit") +
             (info.param.second ? "HotCold" : "Mixed");
    });

/// Runs the skewed workload on a rig and returns the final erase spread
/// (max/mean over the log region): write-once cold data pins ~70% of
/// the blocks (their erase counts freeze), then a small hot set churns
/// the remainder continuously.
double skew_workload_spread(Rig& rig, std::uint64_t seed) {
  Rng rng(seed);
  const std::string cold_value(900, 'c');
  std::uint64_t sig = 1000;
  while (rig.alloc.free_blocks() > 20) rig.put(sig++, cold_value);
  for (int step = 0; step < 25000; ++step) {
    const std::uint64_t hot = 1 + rng.next_below(12);
    const std::string value(rng.next_range(100, 400),
                            static_cast<char>('a' + hot % 26));
    rig.put(hot, value);
    (void)rig.gc.background_tick();
    if (rig.alloc.needs_gc()) {
      EXPECT_EQ(rig.gc.collect(4), Status::kOk) << "step " << step;
    }
  }
  return erase_spread(rig.nand, rig.alloc.first_reserved_block());
}

TEST(GcWearLeveling, SkewedWorkloadStaysUnderSpreadBound) {
  const std::uint64_t seed = rhik::test::harness_seed(0x5EAD);
  const double kBound = 2.0;

  // Wear pass OFF: cold blocks freeze their erase counts while the hot
  // set cycles the same few blocks — the spread runs away past the
  // bound. This arm proves the assertion below actually bites.
  Rig rig_off({.policy = GcPolicy::kCostBenefit,
               .hot_cold_separation = true,
               .background_free_blocks = 8,
               .quantum_pages = 4,
               .wear_leveling_threshold = 0.0});
  const double spread_off = skew_workload_spread(rig_off, seed);

  // Wear pass ON (threshold 1.5, checked every 8 quanta) + wear-aware
  // open-block selection: cold blocks get migrated and their low-wear
  // cells rejoin the pool, keeping max/mean bounded.
  Rig rig_on({.policy = GcPolicy::kCostBenefit,
              .hot_cold_separation = true,
              .background_free_blocks = 8,
              .quantum_pages = 4,
              .wear_leveling_threshold = 1.5,
              .wear_check_quanta = 8});
  const double spread_on = skew_workload_spread(rig_on, seed);

  EXPECT_GT(rig_on.gc.stats().wear_migrations, 0u)
      << "(seed 0x" << std::hex << seed << ")";
  EXPECT_LE(spread_on, kBound)
      << "spread_off=" << spread_off << " (seed 0x" << std::hex << seed << ")";
  EXPECT_GT(spread_off, kBound)
      << "wear-off control no longer exceeds the bound; tighten it "
      << "(seed 0x" << std::hex << seed << ")";
  EXPECT_LT(spread_on, spread_off)
      << "(seed 0x" << std::hex << seed << ")";
  rig_on.check_invariants(/*quiescent=*/false);
}

}  // namespace
}  // namespace rhik::ftl
