// Tests for RHIK's re-configuration (§IV-A2): occupancy-triggered
// doubling, signature-reuse migration, stall accounting, and the §VI
// incremental (real-time) resize extension.
#include <gtest/gtest.h>

#include <unordered_map>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "index/rhik/rhik_index.hpp"
#include "index_test_rig.hpp"

namespace rhik::index {
namespace {

using flash::Geometry;
using flash::NandLatency;
using flash::Ppa;
using testutil::mapped;

struct Rig : testutil::IndexRig<RhikIndex, RhikConfig> {
  explicit Rig(RhikConfig cfg = {}, std::uint64_t cache_bytes = 1 << 20,
               std::uint32_t blocks = 512)
      : testutil::IndexRig<RhikIndex, RhikConfig>(cfg, cache_bytes, blocks) {}
};

/// Inserts until the index has performed `target` resizes. Pumps
/// maintenance after every op, standing in for the device background
/// tick that drains incremental migrations (no-op in STW mode).
std::unordered_map<std::uint64_t, std::uint64_t> fill_through_resizes(
    Rig& rig, int target, std::uint64_t seed = 1) {
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(seed);
  while (rig.index.op_stats().resizes < static_cast<std::uint64_t>(target)) {
    rig.maybe_gc();
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, ref.size()))) ref[sig] = ref.size();
    rig.index.pump_maintenance(0);
  }
  return ref;
}

/// Drains an in-flight migration the way an idle device would.
void drain_migration(Rig& rig) {
  while (rig.index.pump_maintenance(0)) {
  }
}

TEST(RhikResize, TriggersAtOccupancyThreshold) {
  Rig rig;  // dir_bits 0: capacity = 240 (tiny pages)
  EXPECT_EQ(rig.index.dir_bits(), 0u);
  Rng rng(1);
  // Up to 80% of 240 = 192 keys, no resize.
  while (rig.index.size() < 192) {
    rig.index.put(rng.next(), 1);
  }
  EXPECT_EQ(rig.index.op_stats().resizes, 0u);
  // The next insert crosses the threshold and doubles the directory.
  while (rig.index.op_stats().resizes == 0) {
    rig.index.put(rng.next(), 1);
  }
  EXPECT_EQ(rig.index.dir_bits(), 1u);
  EXPECT_EQ(rig.index.capacity(), 2u * 240);
  drain_migration(rig);  // history records at completion
  ASSERT_EQ(rig.index.resize_history().size(), 1u);
  EXPECT_EQ(rig.index.resize_history()[0].capacity_before, 240u);
}

TEST(RhikResize, CustomThresholdHonored) {
  RhikConfig cfg;
  cfg.resize_threshold = 0.5;
  Rig rig(cfg);
  Rng rng(2);
  while (rig.index.op_stats().resizes == 0) rig.index.put(rng.next(), 1);
  drain_migration(rig);
  // Triggered at ~50% of 240, not 80%.
  ASSERT_EQ(rig.index.resize_history().size(), 1u);
  EXPECT_LE(rig.index.resize_history()[0].keys_before, 125u);
}

TEST(RhikResize, AllMappingsSurviveManyDoublings) {
  Rig rig;
  const auto ref = fill_through_resizes(rig, 6);
  EXPECT_GE(rig.index.dir_bits(), 6u);
  EXPECT_EQ(rig.index.size(), ref.size());
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(mapped(rig.index, sig).has_value()) << sig;
    EXPECT_EQ(*mapped(rig.index, sig), ppa);
  }
}

TEST(RhikResize, StallTimeRecordedForStopTheWorld) {
  RhikConfig cfg;
  cfg.incremental_resize = false;  // legacy stop-the-world path
  Rig rig(cfg);
  fill_through_resizes(rig, 3);
  EXPECT_GT(rig.clock.total_stall(), 0u);
  ASSERT_EQ(rig.index.resize_history().size(), 3u);
  // Each doubling migrates ~2x the keys of the previous one, so the
  // duration grows; the *rate* of growth stays bounded (~2 per doubling,
  // i.e. rate-of-change <= ~1 in the paper's Fig. 7 normalization).
  const auto& h = rig.index.resize_history();
  EXPECT_GT(h[1].keys_before, h[0].keys_before);
  EXPECT_GT(h[2].duration_ns, 0u);
}

TEST(RhikResize, ResizeDurationScalesLinearly) {
  RhikConfig cfg;
  cfg.incremental_resize = false;  // duration == stall window in STW mode
  Rig rig(cfg);
  fill_through_resizes(rig, 7);
  const auto& h = rig.index.resize_history();
  ASSERT_GE(h.size(), 7u);
  // Fig. 7's claim: time-to-double grows proportionally to index size
  // (rate of change ~<= 1). Compare growth factors of the last doublings.
  for (std::size_t i = 4; i < h.size(); ++i) {
    const double key_growth = static_cast<double>(h[i].keys_before) /
                              static_cast<double>(h[i - 1].keys_before);
    const double time_growth = static_cast<double>(h[i].duration_ns) /
                               static_cast<double>(h[i - 1].duration_ns);
    const double rate = time_growth / key_growth;
    EXPECT_LE(rate, 1.6) << "resize " << i;
    EXPECT_GE(rate, 0.4) << "resize " << i;
  }
}

TEST(RhikResize, MigrationNeverTouchesKvPairs) {
  // §IV-A2: migration re-uses stored signatures; KV-zone pages are never
  // read. All data-zone reads would go through the store, which this rig
  // does not even have — assert the index only reads index-zone pages.
  Rig rig;
  fill_through_resizes(rig, 4);
  const auto& g = rig.nand.geometry();
  Bytes spare(g.spare_size());
  // Every programmed page in this rig is a record page: no data was
  // ever written, which proves migration derived everything from the
  // index, and the index programs no directory copy of its own (the
  // device checkpoint holds the one durable image).
  for (Ppa p = 0; p < g.pages_total(); ++p) {
    if (!rig.nand.is_programmed(p)) continue;
    ASSERT_EQ(rig.nand.read_page(p, {}, spare), Status::kOk);
    EXPECT_EQ(ftl::SpareTag::decode(spare).kind, ftl::PageKind::kIndexRecord)
        << "page " << p;
  }
}

TEST(RhikResize, OldPagesGoStaleAfterMigration) {
  Rig rig;
  fill_through_resizes(rig, 3);
  ASSERT_EQ(rig.index.flush(), Status::kOk);
  // Count live index pages the index claims vs programmed pages; the
  // difference is stale garbage awaiting GC.
  const auto& g = rig.nand.geometry();
  std::uint64_t programmed = 0, live = 0;
  for (Ppa p = 0; p < g.pages_total(); ++p) {
    if (!rig.nand.is_programmed(p)) continue;
    ++programmed;
    if (rig.index.gc_is_live_index_page(p)) ++live;
  }
  EXPECT_GT(programmed, live);  // resize left stale pages behind
  EXPECT_GT(live, 0u);
}

TEST(RhikResize, IncrementalModeAnswersQueriesMidMigration) {
  RhikConfig cfg;
  cfg.incremental_resize = true;
  cfg.incremental_batch = 1;  // migrate slowly so we observe the window
  Rig rig(cfg);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(5);
  // Fill until a migration starts.
  while (!rig.index.migration_active()) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, ref.size()))) ref[sig] = ref.size();
  }
  ASSERT_TRUE(rig.index.migration_active());
  // Mid-migration: every existing mapping must be visible.
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(mapped(rig.index, sig).has_value()) << sig;
    EXPECT_EQ(*mapped(rig.index, sig), ppa);
  }
}

TEST(RhikResize, IncrementalModeCompletesAndPreservesAll) {
  RhikConfig cfg;
  cfg.incremental_resize = true;
  cfg.incremental_batch = 2;
  Rig rig(cfg);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(6);
  for (int i = 0; i < 3000; ++i) {
    rig.maybe_gc();
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, i))) ref[sig] = i;
  }
  // Foreground reads no longer migrate; the background pump drains it.
  drain_migration(rig);
  EXPECT_FALSE(rig.index.migration_active());
  EXPECT_GE(rig.index.op_stats().resizes, 1u);
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(mapped(rig.index, sig).has_value()) << sig;
    EXPECT_EQ(*mapped(rig.index, sig), ppa);
  }
}

TEST(RhikResize, IncrementalModeDoesNotStallQueue) {
  RhikConfig cfg;
  cfg.incremental_resize = true;
  Rig rig(cfg);
  fill_through_resizes(rig, 2);
  // No stop-the-world window: stall time stays zero.
  EXPECT_EQ(rig.clock.total_stall(), 0u);
}

TEST(RhikResize, ErasesDuringMigrationLandCorrectly) {
  RhikConfig cfg;
  cfg.incremental_resize = true;
  cfg.incremental_batch = 1;
  Rig rig(cfg);
  std::vector<std::uint64_t> sigs;
  Rng rng(7);
  while (!rig.index.migration_active()) {
    const std::uint64_t sig = rng.next();
    if (ok(rig.index.put(sig, 1))) sigs.push_back(sig);
  }
  // Erase half the keys mid-migration.
  std::uint64_t erased = 0;
  for (std::size_t i = 0; i < sigs.size(); i += 2) {
    if (rig.index.erase(sigs[i]) == Status::kOk) ++erased;
  }
  EXPECT_EQ(rig.index.size(), sigs.size() - erased);
  for (std::size_t i = 1; i < sigs.size(); i += 2) {
    EXPECT_TRUE(mapped(rig.index, sigs[i]).has_value());
  }
  for (std::size_t i = 0; i < sigs.size(); i += 2) {
    EXPECT_FALSE(mapped(rig.index, sigs[i]).has_value());
  }
}

TEST(RhikResize, GrowthPastDirBitsCapReturnsIndexFull) {
  RhikConfig cfg;
  cfg.max_dir_bits = 1;
  Rig rig(cfg);
  const auto ref = fill_through_resizes(rig, 1);
  drain_migration(rig);
  EXPECT_EQ(rig.index.dir_bits(), 1u);
  // Fill past the refused doubling: new keys keep landing while they fit,
  // and the first insert that genuinely fails surfaces kIndexFull.
  Rng rng(31);
  Status st = Status::kOk;
  for (int i = 0; i < 4000 && st != Status::kIndexFull; ++i) {
    rig.maybe_gc();
    st = rig.index.put(rng.next(), i);
  }
  EXPECT_EQ(st, Status::kIndexFull);
  EXPECT_GE(rig.index.op_stats().index_full, 1u);
  EXPECT_EQ(rig.index.dir_bits(), 1u);
  // The index still serves everything it already holds.
  for (const auto& [sig, ppa] : ref) {
    ASSERT_TRUE(mapped(rig.index, sig).has_value()) << sig;
    EXPECT_EQ(*mapped(rig.index, sig), ppa);
  }
}

TEST(RhikResize, UpdatesOfExistingKeysSucceedAtDirBitsCap) {
  // Regression: the bits cap used to make maybe_resize fail EVERY put
  // once occupancy crossed the threshold — including overwrites, which
  // add no key and always fit. A capped index must keep taking updates.
  RhikConfig cfg;
  cfg.max_dir_bits = 1;
  Rig rig(cfg);
  const auto ref = fill_through_resizes(rig, 1);
  drain_migration(rig);
  // Push occupancy over the next resize threshold so a doubling is wanted
  // (and refused at the cap) on every subsequent put.
  Rng rng(33);
  const std::uint64_t over =
      static_cast<std::uint64_t>(cfg.resize_threshold * rig.index.capacity()) + 2;
  while (rig.index.size() < over) {
    rig.maybe_gc();
    rig.index.put(rng.next(), 1);
  }
  EXPECT_EQ(rig.index.dir_bits(), 1u);
  const std::uint64_t keys = rig.index.size();
  for (const auto& [sig, ppa] : ref) {
    ASSERT_EQ(rig.index.put(sig, ppa + 1000), Status::kOk) << sig;
    EXPECT_EQ(*mapped(rig.index, sig), ppa + 1000);
  }
  EXPECT_EQ(rig.index.size(), keys);  // overwrites added nothing
  EXPECT_EQ(rig.index.op_stats().index_full, 0u);
}

TEST(RhikResize, ReplayRejectedRepointAfterMigrateForcesFullScan) {
  // Regression for a silent-loss window in journal replay. Tail order:
  //   resize; repoint(new-gen B -> P1) [migration target]; migrate(B_src);
  //   repoint(new-gen B -> P2) [post-migration write-back, non-durable data]
  // Replay applies only a slot's LAST repoint, so P1 is skipped; P2 is
  // rejected by the durability vet. Keeping the image's slot (kInvalidPpa
  // for a fresh split target) would phantom-drop every pre-checkpoint
  // mapping migrated into B, because the migrate record has already
  // retired the source bucket — and may even have closed the window.
  // The index must force the full-scan fallback (kCorruption) instead.
  Rig rig;
  Rng rng(17);
  while (rig.index.size() < 150) rig.index.put(rng.next(), rig.index.size());
  ASSERT_EQ(rig.index.flush(), Status::kOk);
  Bytes image0;  // gen 0, bits 0
  ASSERT_EQ(rig.index.serialize_image(image0), Status::kOk);

  // Grow through one full doubling so genuine new-generation record
  // pages exist on flash to stand in for P2.
  while (rig.index.op_stats().resizes == 0) rig.index.put(rng.next(), 1);
  drain_migration(rig);
  ASSERT_EQ(rig.index.flush(), Status::kOk);
  ASSERT_EQ(rig.index.dir_bits(), 1u);
  Bytes image1;  // gen 1, bits 1
  ASSERT_EQ(rig.index.serialize_image(image1), Status::kOk);
  const Ppa target = get_u40(image1, 20);  // new-gen bucket 0 record page
  ASSERT_NE(target, flash::kInvalidPpa);

  // Journal slot-key layout: generation in bits 40+, bucket below.
  const auto slot_key = [](std::uint32_t gen, std::uint64_t bucket) {
    return (std::uint64_t{gen} << 40) | bucket;
  };
  const auto never_durable = [](Ppa) { return false; };

  // Replay the tail above against the pre-resize image.
  ASSERT_EQ(rig.index.load_image(image0), Status::kOk);
  ASSERT_EQ(rig.index.apply_journal_resize(1, 1), Status::kOk);
  // Retires bucket 0 — the only source bucket, so the window closes too.
  ASSERT_EQ(rig.index.apply_journal_migrate(slot_key(0, 0)), Status::kOk);
  ASSERT_FALSE(rig.index.maintenance_active());
  EXPECT_EQ(
      rig.index.apply_journal_repoint(slot_key(1, 0), target, never_durable),
      Status::kCorruption);

  // Control: in a tail with no resize record, a rejected write-back keeps
  // the image's slot and replay continues — image + tail reconstructs it.
  ASSERT_EQ(rig.index.load_image(image1), Status::kOk);
  EXPECT_EQ(
      rig.index.apply_journal_repoint(slot_key(1, 0), target, never_durable),
      Status::kOk);
}

TEST(RhikResize, CapacityDoublesDirectoryEachTime) {
  Rig rig;
  const std::uint64_t cap0 = rig.index.capacity();
  fill_through_resizes(rig, 1);
  EXPECT_EQ(rig.index.capacity(), cap0 * 2);
  fill_through_resizes(rig, 2, /*seed=*/55);
  EXPECT_EQ(rig.index.capacity(), cap0 * 4);
}

}  // namespace
}  // namespace rhik::index
