// Crash/power-loss recovery tests: tombstones, sequence ordering, full
// log-scan index reconstruction, allocator adoption (kvssd/recovery).
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "index/rhik/rhik_index.hpp"
#include "kvssd/device.hpp"
#include "kvssd/recovery.hpp"
#include "workload/keygen.hpp"

namespace rhik::kvssd {
namespace {

DeviceConfig small_config() {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(128);  // 8 MiB
  cfg.dram_cache_bytes = 64 * 1024;
  return cfg;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }

/// Simulates power loss: tears the device down (optionally after a clean
/// flush) and recovers a fresh one over the same NAND.
std::unique_ptr<KvssdDevice> power_cycle(std::unique_ptr<KvssdDevice> dev,
                                         bool clean_shutdown) {
  if (clean_shutdown) {
    EXPECT_EQ(dev->flush(), Status::kOk);
  }
  auto nand = dev->release_nand();
  auto recovered = KvssdDevice::recover(small_config(), std::move(nand));
  EXPECT_TRUE(recovered.has_value());
  return std::move(recovered).value();
}

TEST(Tombstone, HeaderBitRoundTrip) {
  ftl::PairHeader h{42, 10, 0, /*epoch=*/7, true};
  Bytes buf(32);
  h.encode(buf, 0);
  const auto got = ftl::PairHeader::decode(buf, 0);
  EXPECT_TRUE(got.tombstone);
  EXPECT_EQ(got.key_len, 10);
  EXPECT_EQ(got.sig, 42u);
  EXPECT_EQ(got.epoch, 7u);
}

TEST(Tombstone, StoreWritesAndReportsIt) {
  SimClock clock;
  flash::NandDevice nand(flash::Geometry::tiny(16),
                         flash::NandLatency::kvemu_defaults(), &clock);
  ftl::PageAllocator alloc(&nand, 2);
  ftl::FlashKvStore store(&nand, &alloc);
  auto ppa = store.write_tombstone(99, key("dead"));
  ASSERT_TRUE(ppa);
  auto meta = store.read_pair_meta(*ppa, 99);
  ASSERT_TRUE(meta);
  EXPECT_TRUE(meta->tombstone);
  EXPECT_EQ(rhik::to_string(ByteSpan{meta->key}), "dead");
  EXPECT_EQ(store.stats().tombstones_written, 1u);
}

TEST(Tombstone, SequenceNumbersMonotonicAcrossPages) {
  SimClock clock;
  flash::NandDevice nand(flash::Geometry::tiny(16),
                         flash::NandLatency::kvemu_defaults(), &clock);
  ftl::PageAllocator alloc(&nand, 2);
  ftl::FlashKvStore store(&nand, &alloc);
  // Several pages of pairs plus an extent in the middle.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.write_pair(i + 1, key("k" + std::to_string(i)),
                                 key(std::string(400, 'v'))));
  }
  ASSERT_TRUE(store.write_pair(1000, key("big"), key(std::string(9000, 'B'))));
  ASSERT_EQ(store.flush(), Status::kOk);

  const auto& g = nand.geometry();
  Bytes spare(g.spare_size());
  std::uint64_t last_seq = 0;
  for (flash::Ppa p = 0; p < g.pages_total(); ++p) {
    if (!nand.is_programmed(p)) continue;
    ASSERT_EQ(nand.read_page(p, {}, spare), Status::kOk);
    if (ftl::SpareTag::decode(spare).kind != ftl::PageKind::kDataHead) continue;
    const std::uint64_t seq = ftl::DataPageSpare::decode(spare).seq;
    EXPECT_GT(seq, last_seq);  // pages are programmed in seq order here
    last_seq = seq;
  }
  EXPECT_GT(last_seq, 0u);
}

TEST(Recovery, CleanShutdownRestoresEverything) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  std::unordered_map<std::string, std::string> ref;
  Rng rng(3);
  for (int i = 0; i < 800; ++i) {
    const std::string k = "key-" + std::to_string(i);
    const std::string v(rng.next_range(4, 200), static_cast<char>('a' + i % 26));
    ASSERT_EQ(dev->put(key(k), key(v)), Status::kOk);
    ref[k] = v;
  }
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/true);
  EXPECT_EQ(dev2->key_count(), ref.size());
  for (const auto& [k, v] : ref) {
    Bytes value;
    ASSERT_EQ(dev2->get(key(k), &value), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(value), v);
  }
}

TEST(Recovery, TombstonesKeepDeletionsDurable) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  ASSERT_EQ(dev->put(key("keep"), key("v1")), Status::kOk);
  ASSERT_EQ(dev->put(key("drop"), key("v2")), Status::kOk);
  ASSERT_EQ(dev->del(key("drop")), Status::kOk);
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/true);
  Bytes value;
  EXPECT_EQ(dev2->get(key("keep"), &value), Status::kOk);
  EXPECT_EQ(dev2->get(key("drop"), &value), Status::kNotFound);
  EXPECT_EQ(dev2->key_count(), 1u);
}

TEST(Recovery, NewestVersionWins) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  ASSERT_EQ(dev->put(key("k"), key("version-1")), Status::kOk);
  // Push the first version onto flash and far from the update.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(dev->put(key("filler" + std::to_string(i)), key(std::string(200, 'f'))),
              Status::kOk);
  }
  ASSERT_EQ(dev->put(key("k"), key("version-2")), Status::kOk);
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/true);
  Bytes value;
  ASSERT_EQ(dev2->get(key("k"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "version-2");
}

TEST(Recovery, DeleteThenReinsertRecoversNewValue) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  ASSERT_EQ(dev->put(key("x"), key("old")), Status::kOk);
  ASSERT_EQ(dev->del(key("x")), Status::kOk);
  ASSERT_EQ(dev->put(key("x"), key("new")), Status::kOk);
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/true);
  Bytes value;
  ASSERT_EQ(dev2->get(key("x"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "new");
}

TEST(Recovery, UnflushedWriteBufferIsLost) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  ASSERT_EQ(dev->put(key("durable"), key(std::string(300, 'd'))), Status::kOk);
  ASSERT_EQ(dev->flush(), Status::kOk);
  // This small pair stays in the RAM write buffer — gone on power loss.
  ASSERT_EQ(dev->put(key("volatile"), key("ram-only")), Status::kOk);
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/false);
  Bytes value;
  EXPECT_EQ(dev2->get(key("durable"), &value), Status::kOk);
  EXPECT_EQ(dev2->get(key("volatile"), &value), Status::kNotFound);
}

TEST(Recovery, SurvivesGcBeforeCrash) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  std::unordered_map<std::string, std::string> ref;
  Rng rng(5);
  // Churn hard enough to cycle GC several times, with deletions.
  for (int step = 0; step < 16000; ++step) {
    const std::string k = "c" + std::to_string(rng.next_below(150));
    if (rng.next_below(10) < 8) {
      const std::string v(rng.next_range(100, 1500), static_cast<char>('a' + step % 26));
      ASSERT_EQ(dev->put(key(k), key(v)), Status::kOk) << step;
      ref[k] = v;
    } else if (ref.count(k)) {
      ASSERT_EQ(dev->del(key(k)), Status::kOk);
      ref.erase(k);
    }
  }
  ASSERT_GT(dev->gc().stats().blocks_reclaimed, 0u);
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/true);
  EXPECT_EQ(dev2->key_count(), ref.size());
  for (const auto& [k, v] : ref) {
    Bytes value;
    ASSERT_EQ(dev2->get(key(k), &value), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(value), v);
  }
}

TEST(Recovery, DeviceRemainsFullyOperationalAfterRecovery) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(dev->put(key("pre" + std::to_string(i)), key(std::string(100, 'p'))),
              Status::kOk);
  }
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/true);
  // Writes, updates, deletes and GC all work on the adopted flash. The
  // churn exceeds the 8 MiB device several times over, forcing GC.
  for (int i = 0; i < 12000; ++i) {
    ASSERT_EQ(dev2->put(key("post" + std::to_string(i % 300)),
                        key(std::string(800, 'q'))),
              Status::kOk)
        << i;
  }
  Bytes value;
  EXPECT_EQ(dev2->get(key("pre42"), &value), Status::kOk);
  EXPECT_EQ(dev2->del(key("pre42")), Status::kOk);
  EXPECT_EQ(dev2->get(key("pre42"), &value), Status::kNotFound);
  EXPECT_GT(dev2->gc().stats().blocks_reclaimed, 0u);
}

TEST(Recovery, DoublePowerCycle) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  ASSERT_EQ(dev->put(key("a"), key("1")), Status::kOk);
  auto dev2 = power_cycle(std::move(dev), true);
  ASSERT_EQ(dev2->put(key("b"), key("2")), Status::kOk);
  ASSERT_EQ(dev2->del(key("a")), Status::kOk);
  auto dev3 = power_cycle(std::move(dev2), true);
  Bytes value;
  EXPECT_EQ(dev3->get(key("a"), &value), Status::kNotFound);
  ASSERT_EQ(dev3->get(key("b"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "2");
}

TEST(Recovery, StaleSnapshotHandleStaysDeadAfterPowerCycle) {
  // Nothing is stamped after the pre-crash pin, so the recovered epoch
  // source restarts at the pinned epoch. The pins opened after recovery
  // must still never alias the stale handle.
  for (const bool checkpoints : {false, true}) {
    SCOPED_TRACE(checkpoints ? "checkpoints" : "full scan");
    DeviceConfig cfg = small_config();
    cfg.prefix_signatures = true;
    cfg.checkpoint.enabled = checkpoints;
    auto dev = std::make_unique<KvssdDevice>(cfg);
    ASSERT_EQ(dev->put(key("k"), key("v")), Status::kOk);
    const auto stale = dev->open_snapshot();
    ASSERT_TRUE(stale);
    ASSERT_EQ(dev->flush(), Status::kOk);
    auto recovered = KvssdDevice::recover(cfg, dev->release_nand());
    ASSERT_TRUE(recovered);
    dev = std::move(*recovered);

    const auto first = dev->open_snapshot();
    const auto second = dev->open_snapshot();
    ASSERT_TRUE(first);
    ASSERT_TRUE(second);
    Bytes v;
    EXPECT_EQ(dev->read_at(*stale, key("k"), &v), Status::kSnapshotTooOld);
    EXPECT_EQ(dev->kvs_open_iterator(key("k"), &*stale).status(),
              Status::kSnapshotTooOld);
    EXPECT_EQ(dev->release_snapshot(*stale), Status::kSnapshotTooOld);
    // The stale handle released nothing: the new pins still read.
    EXPECT_EQ(dev->read_at(*first, key("k"), &v), Status::kOk);
    EXPECT_EQ(rhik::to_string(v), "v");
    EXPECT_EQ(dev->release_snapshot(*first), Status::kOk);
    EXPECT_EQ(dev->release_snapshot(*second), Status::kOk);
  }
}

TEST(Recovery, MismatchedGeometryRejected) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  ASSERT_EQ(dev->flush(), Status::kOk);
  auto nand = dev->release_nand();
  DeviceConfig other = small_config();
  other.geometry = flash::Geometry::tiny(64);  // different capacity
  auto recovered = KvssdDevice::recover(other, std::move(nand));
  EXPECT_FALSE(recovered.has_value());
  EXPECT_EQ(recovered.status(), Status::kInvalidArgument);
  auto null_recover = KvssdDevice::recover(small_config(), nullptr);
  EXPECT_EQ(null_recover.status(), Status::kInvalidArgument);
}

TEST(Recovery, StatsReportScanResults) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(dev->put(key("s" + std::to_string(i)), key(std::string(50, 's'))),
              Status::kOk);
  }
  ASSERT_EQ(dev->del(key("s0")), Status::kOk);
  ASSERT_EQ(dev->flush(), Status::kOk);
  auto nand = dev->release_nand();

  SimClock clock;
  nand->rebind_clock(&clock);
  ftl::PageAllocator alloc(nand.get(), 4);
  ftl::FlashKvStore store(nand.get(), &alloc);
  index::RhikIndex index(nand.get(), &alloc, {}, 1 << 20);
  auto stats = recover_from_flash(*nand, alloc, store, index);
  ASSERT_TRUE(stats);
  EXPECT_EQ(stats->keys_recovered, 299u);
  EXPECT_GE(stats->tombstones_seen, 1u);
  EXPECT_GT(stats->blocks_adopted, 0u);
  EXPECT_GT(stats->max_seq, 0u);
  EXPECT_EQ(store.next_seq(), stats->max_seq + 1);
  EXPECT_EQ(index.size(), 299u);
  // Every adopted block's wear came back from its page-0 spare stamp.
  EXPECT_EQ(stats->wear_blocks_restored, stats->blocks_adopted);
  EXPECT_EQ(stats->torn_pages_dropped, 0u);  // clean shutdown: nothing torn
}

TEST(Recovery, MultiPageExtentLivenessSurvivesGc) {
  // Regression for extent liveness accounting: a value spanning several
  // pages must credit every page's block, or pick_victim can erase
  // continuation pages out from under the live extent after recovery.
  auto dev = std::make_unique<KvssdDevice>(small_config());
  const std::string big(9000, 'B');  // head + 3 continuation pages @4KiB
  ASSERT_EQ(dev->put(key("big"), key(big)), Status::kOk);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(dev->put(key("f" + std::to_string(i)), key(std::string(200, 'f'))),
              Status::kOk);
  }
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/true);

  // Churn far past capacity so GC cycles every reclaimable block.
  for (int i = 0; i < 14000; ++i) {
    ASSERT_EQ(dev2->put(key("churn" + std::to_string(i % 200)),
                        key(std::string(700, 'c'))),
              Status::kOk)
        << i;
  }
  ASSERT_GT(dev2->gc().stats().blocks_reclaimed, 0u);
  Bytes value;
  ASSERT_EQ(dev2->get(key("big"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), big);
}

TEST(Recovery, GcRelocatedTombstoneStaysDeletedAfterRecovery) {
  // A tombstone whose signature has no newer version must survive BOTH
  // GC relocation and the subsequent recovery replay — if GC dropped it,
  // the stale pre-delete pair still on flash would resurrect the key.
  auto dev = std::make_unique<KvssdDevice>(small_config());
  ASSERT_EQ(dev->put(key("dead"), key(std::string(100, 'd'))), Status::kOk);
  // Live neighbours keep the pre-delete pair's block OFF the victim list.
  for (int i = 0; i < 60; ++i) {
    ASSERT_EQ(dev->put(key("keep" + std::to_string(i)), key(std::string(800, 'k'))),
              Status::kOk);
  }
  ASSERT_EQ(dev->flush(), Status::kOk);

  ASSERT_EQ(dev->del(key("dead")), Status::kOk);  // tombstone, no newer version
  // Surround the tombstone with pairs, then stale them all out with
  // overwrites: the tombstone's block becomes the min-live victim.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(dev->put(key("s" + std::to_string(i)), key(std::string(300, '1'))),
              Status::kOk);
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(dev->put(key("s" + std::to_string(i)), key(std::string(300, '2'))),
              Status::kOk);
  }
  ASSERT_EQ(dev->flush(), Status::kOk);

  // Collect until data pairs were actually relocated (early victims may
  // be zero-live stale index blocks).
  const std::uint64_t relocated_before = dev->gc().stats().pairs_relocated;
  for (int i = 0; i < 30 && dev->gc().stats().pairs_relocated == relocated_before;
       ++i) {
    if (!ok(dev->gc().collect_one())) break;
  }
  ASSERT_GT(dev->gc().stats().blocks_reclaimed, 0u);
  ASSERT_GT(dev->gc().stats().pairs_relocated, relocated_before);

  // Abrupt power loss: GC's own flush-before-erase must have made the
  // relocated tombstone durable; no explicit flush here.
  auto nand = dev->release_nand();
  dev.reset();
  RecoveryStats stats;
  auto recovered = KvssdDevice::recover(small_config(), std::move(nand), &stats);
  ASSERT_TRUE(recovered.has_value());
  auto& dev2 = **recovered;
  EXPECT_GE(stats.tombstones_seen, 1u);
  Bytes value;
  EXPECT_EQ(dev2.get(key("dead"), &value), Status::kNotFound);
  EXPECT_EQ(dev2.get(key("keep7"), &value), Status::kOk);
  // The key is re-insertable after its tombstone won.
  ASSERT_EQ(dev2.put(key("dead"), key("reborn")), Status::kOk);
  ASSERT_EQ(dev2.get(key("dead"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "reborn");
}

TEST(Recovery, WearCountsRestoredFromSpareStamps) {
  auto dev = std::make_unique<KvssdDevice>(small_config());
  Rng rng(11);
  // Churn past capacity so GC erases blocks and wear accumulates.
  for (int i = 0; i < 16000; ++i) {
    ASSERT_EQ(dev->put(key("w" + std::to_string(rng.next_below(120))),
                       key(std::string(rng.next_range(200, 900), 'w'))),
              Status::kOk)
        << i;
  }
  ASSERT_EQ(dev->flush(), Status::kOk);

  const auto& g = dev->nand().geometry();
  std::unordered_map<std::uint32_t, std::uint32_t> expected;
  std::uint32_t worn_blocks = 0;
  for (std::uint32_t b = 0; b < g.num_blocks; ++b) {
    if (dev->nand().pages_programmed(b) == 0) continue;
    expected[b] = dev->nand().erase_count(b);
    worn_blocks += expected[b] > 0;
  }
  ASSERT_GT(worn_blocks, 0u);  // the churn really recycled blocks

  // recover() power-cycles the array: the wear RAM is wiped, then
  // re-derived from the per-block spare stamps during the scan. Blocks
  // with nothing live get swept (erased) right after their stamp is
  // restored, so they come back exactly one erase ahead; blocks still
  // holding live data keep the stamped count.
  auto dev2 = power_cycle(std::move(dev), /*clean_shutdown=*/false);
  std::uint32_t exact = 0;
  for (const auto& [block, count] : expected) {
    const std::uint32_t got = dev2->nand().erase_count(block);
    EXPECT_TRUE(got == count || got == count + 1)
        << "block " << block << ": stamped " << count << ", got " << got;
    exact += got == count;
  }
  EXPECT_GT(exact, 0u);  // live blocks restored their exact stamped wear
}

}  // namespace
}  // namespace rhik::kvssd
