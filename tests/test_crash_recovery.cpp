// Power-cut fault injection × recovery: torn head pages truncated by
// CRC, incomplete extents dropped, interrupted GC and resize tolerated,
// sharded array recovery — capped by a randomized crash-point harness
// that cuts power at hundreds of random operations and verifies every
// key against its durability floor.
//
// Durability contract being checked (matches real hardware with a RAM
// write buffer): an acknowledged operation is guaranteed durable once a
// flush() has succeeded after it; between flushes, recovery may surface
// any acknowledged state at-or-after the last flush — never an older
// one, never a made-up one, and a deleted-and-flushed key never
// resurrects.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "flash/fault_injector.hpp"
#include "kvssd/device.hpp"
#include "kvssd/recovery.hpp"
#include "shard/sharded_kvssd.hpp"
#include "test_seed.hpp"

namespace rhik::kvssd {
namespace {

DeviceConfig crash_config() {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);  // 4 MiB: GC pressure comes fast
  cfg.dram_cache_bytes = 32 * 1024;
  return cfg;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }

// --- Deterministic torn-write scenarios --------------------------------------

TEST(CrashRecovery, TornHeadPageTruncatedByCrc) {
  auto dev = std::make_unique<KvssdDevice>(crash_config());
  ASSERT_EQ(dev->put(key("durable"), key(std::string(300, 'd'))), Status::kOk);
  ASSERT_EQ(dev->flush(), Status::kOk);

  // The next data-page program is garbage-torn: a buffered pair's page
  // dies mid-program with random bytes in data AND spare — without the
  // CRC, those spare bytes could decode as any tag.
  flash::FaultInjector fi(21);
  dev->nand().set_fault_injector(&fi);
  ASSERT_EQ(dev->put(key("victim"), key(std::string(200, 'v'))), Status::kOk);
  fi.arm_after(1, flash::TornWritePolicy::kGarbage);
  EXPECT_NE(dev->flush(), Status::kOk);  // the cut kills the flush
  EXPECT_TRUE(fi.powered_off());

  auto nand = dev->release_nand();
  dev.reset();
  RecoveryStats stats;
  auto recovered = KvssdDevice::recover(crash_config(), std::move(nand), &stats);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_GE(stats.torn_pages_dropped, 1u);  // detected and truncated, not parsed

  Bytes value;
  EXPECT_EQ((*recovered)->get(key("durable"), &value), Status::kOk);
  EXPECT_EQ((*recovered)->get(key("victim"), &value), Status::kNotFound);
}

TEST(CrashRecovery, PartialTearWithIntactSpareStillDetected) {
  // The nastier torn-write flavour: the spare area (tag + seq + CRC of
  // the INTENDED image) lands intact while the data area is cut short.
  // Only the CRC check can reject this page.
  auto dev = std::make_unique<KvssdDevice>(crash_config());
  ASSERT_EQ(dev->put(key("before"), key(std::string(500, 'b'))), Status::kOk);
  ASSERT_EQ(dev->flush(), Status::kOk);

  flash::FaultInjector fi(1235);  // seed picked so the cut bites mid-data
  dev->nand().set_fault_injector(&fi);
  ASSERT_EQ(dev->put(key("torn"), key(std::string(2000, 't'))), Status::kOk);
  fi.arm_after(1, flash::TornWritePolicy::kPartial);
  EXPECT_NE(dev->flush(), Status::kOk);

  auto nand = dev->release_nand();
  dev.reset();
  RecoveryStats stats;
  auto recovered = KvssdDevice::recover(crash_config(), std::move(nand), &stats);
  ASSERT_TRUE(recovered.has_value());

  Bytes value;
  EXPECT_EQ((*recovered)->get(key("before"), &value), Status::kOk);
  // The torn pair either vanished with its page or — if the random cut
  // happened to land in the page's 0xFF padding — survived complete.
  // What it must never do is come back mangled.
  const Status st = (*recovered)->get(key("torn"), &value);
  if (st == Status::kOk) {
    EXPECT_EQ(rhik::to_string(value), std::string(2000, 't'));
  } else {
    EXPECT_EQ(st, Status::kNotFound);
    EXPECT_GE(stats.torn_pages_dropped, 1u);
  }
}

TEST(CrashRecovery, IncompleteExtentDroppedOldVersionWins) {
  auto dev = std::make_unique<KvssdDevice>(crash_config());
  ASSERT_EQ(dev->put(key("k"), key("small-v1")), Status::kOk);
  ASSERT_EQ(dev->flush(), Status::kOk);

  // Overwrite with a multi-page extent and cut power on the SECOND
  // destructive op: the head page programs fine, its first continuation
  // page is torn. The head is CRC-valid and newer — but adopting it
  // would serve a truncated value, so recovery must drop the extent and
  // let v1 win.
  flash::FaultInjector fi(7);
  dev->nand().set_fault_injector(&fi);
  fi.arm_after(2, flash::TornWritePolicy::kGarbage);
  EXPECT_NE(dev->put(key("k"), key(std::string(9000, 'X'))), Status::kOk);
  EXPECT_TRUE(fi.powered_off());

  auto nand = dev->release_nand();
  dev.reset();
  RecoveryStats stats;
  auto recovered = KvssdDevice::recover(crash_config(), std::move(nand), &stats);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(stats.incomplete_extents_dropped, 1u);

  Bytes value;
  ASSERT_EQ((*recovered)->get(key("k"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "small-v1");
}

TEST(CrashRecovery, CutDuringGcKeepsFlushedStateIntact) {
  auto dev = std::make_unique<KvssdDevice>(crash_config());
  std::map<std::string, std::string> ref;
  Rng rng(17);
  // Build up stale churn so GC has real relocation work, then flush:
  // everything in ref is now the durability floor.
  for (int i = 0; i < 4000; ++i) {
    const std::string k = "g" + std::to_string(rng.next_below(80));
    const std::string v(rng.next_range(150, 900), static_cast<char>('a' + i % 26));
    ASSERT_EQ(dev->put(key(k), key(v)), Status::kOk) << i;
    ref[k] = v;
  }
  ASSERT_EQ(dev->flush(), Status::kOk);

  // Kill power inside the collector: relocation programs + the victim
  // erase are all destructive ops the countdown can land on.
  flash::FaultInjector fi(4242);
  dev->nand().set_fault_injector(&fi);
  fi.arm_after(5);
  const Status gc_st =
      dev->gc().collect(dev->config().geometry.num_blocks);  // unreachable target
  EXPECT_NE(gc_st, Status::kOk);
  EXPECT_TRUE(fi.powered_off());

  auto nand = dev->release_nand();
  dev.reset();
  auto recovered = KvssdDevice::recover(crash_config(), std::move(nand));
  ASSERT_TRUE(recovered.has_value());
  for (const auto& [k, v] : ref) {
    Bytes value;
    ASSERT_EQ((*recovered)->get(key(k), &value), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(value), v) << k;
  }
}

TEST(CrashRecovery, CutInsideBackgroundQuantumKeepsFloor) {
  // Incremental GC stretches one victim across many quanta, so a power
  // cut routinely lands in the half-collected window: some pairs already
  // copied to the cold stream (index repointed), the victim not yet
  // erased. Recovery then sees BOTH copies and must resolve every
  // duplicate by sequence number without losing a single flushed key.
  DeviceConfig cfg = crash_config();
  cfg.gc.background_free_blocks = cfg.geometry.num_blocks;  // always pending
  cfg.gc.quantum_pages = 2;  // 16-page victims span ~8 quanta: wide window
  auto dev = std::make_unique<KvssdDevice>(cfg);
  std::map<std::string, std::string> ref;
  Rng rng(23);
  // Churn through one drained batch: per-op puts would tick a GC
  // quantum each (the collector outruns the write stream and drains every
  // stale block before we can observe it), but a drain ticks once per
  // batch — so the stale blocks it creates are still standing afterwards.
  std::size_t failed = 0;
  dev->set_completion_sink([&](std::vector<api::TaggedCompletion>&& done) {
    for (const auto& c : done) failed += ok(c.status) ? 0 : 1;
  });
  for (std::uint64_t i = 0; i < 4000; ++i) {
    const std::string k = "b" + std::to_string(rng.next_below(80));
    const std::string v(rng.next_range(150, 900),
                        static_cast<char>('a' + rng.next_below(26)));
    dev->submit({api::Command::Op::kPut, i, Bytes(k.begin(), k.end()),
                 Bytes(v.begin(), v.end())});
    ref[k] = v;
  }
  ASSERT_EQ(dev->drain(), 4000u);
  ASSERT_EQ(failed, 0u);
  dev->set_completion_sink({});
  ASSERT_EQ(dev->flush(), Status::kOk);  // ref is now the durability floor

  // Pump idle-window quanta until a victim is provably mid-flight.
  bool in_flight = dev->gc().background_in_progress();
  for (int i = 0; i < 1000 && !in_flight; ++i) {
    (void)dev->pump_background();
    in_flight = dev->gc().background_in_progress();
  }
  ASSERT_TRUE(in_flight);

  // Cut power on the next destructive op the quanta issue: a relocation
  // page program, or the victim erase at the end of the last quantum.
  flash::FaultInjector fi(777);
  dev->nand().set_fault_injector(&fi);
  fi.arm_after(1);
  for (int i = 0; i < 1000 && !fi.powered_off(); ++i) {
    (void)dev->pump_background();
  }
  EXPECT_TRUE(fi.powered_off());

  auto nand = dev->release_nand();
  dev.reset();
  auto recovered = KvssdDevice::recover(cfg, std::move(nand));
  ASSERT_TRUE(recovered.has_value());
  for (const auto& [k, v] : ref) {
    Bytes value;
    ASSERT_EQ((*recovered)->get(key(k), &value), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(value), v) << k;
  }
}

TEST(CrashRecovery, CutDuringPreEraseJournalFlushKeepsFloor) {
  // With checkpointing on, every victim erase is preceded by a journal
  // flush (store-first: data pages, then the journal page) so GC
  // repoints are durable before the old locations vanish. Walk the cut
  // across that window — the journal page program itself, the erase
  // right after it, and one op beyond — and require the floor intact and
  // unflushed ops all-or-nothing at every landing point.
  for (const std::uint32_t arm : {1u, 2u, 3u}) {
    DeviceConfig cfg = crash_config();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.slot_blocks = 2;
    cfg.checkpoint.journal_blocks = 2;
    cfg.checkpoint.dirty_pages = 48;
    cfg.checkpoint.pump_pages = 4;
    cfg.gc.background_free_blocks = 0;  // keep collect_one() synchronous
    auto dev = std::make_unique<KvssdDevice>(cfg);
    std::map<std::string, std::string> ref;
    Rng rng(29);
    for (int i = 0; i < 2000; ++i) {
      const std::string k = "j" + std::to_string(rng.next_below(60));
      const std::string v(rng.next_range(150, 900),
                          static_cast<char>('a' + i % 26));
      ASSERT_EQ(dev->put(key(k), key(v)), Status::kOk) << i;
      ref[k] = v;
    }
    ASSERT_EQ(dev->flush(), Status::kOk);  // journal buffer drained, floor set

    // Buffer fresh journal records so the pre-erase flush has a page to
    // program. These keys are acked but unflushed: recovery may keep or
    // drop them, but must never mangle them.
    std::map<std::string, std::string> pending;
    for (int i = 0; i < 8; ++i) {
      const std::string k = "jp" + std::to_string(i);
      const std::string v = "pending-" + std::to_string(i);
      ASSERT_EQ(dev->put(key(k), key(v)), Status::kOk);
      pending[k] = v;
    }

    flash::FaultInjector fi(888 + arm);
    dev->nand().set_fault_injector(&fi);
    fi.arm_after(arm);
    for (int i = 0; i < 64 && !fi.powered_off(); ++i) {
      (void)dev->gc().collect_one();
    }
    EXPECT_TRUE(fi.powered_off()) << "arm=" << arm;

    auto nand = dev->release_nand();
    dev.reset();
    RecoveryStats stats;
    auto recovered = KvssdDevice::recover(cfg, std::move(nand), &stats);
    ASSERT_TRUE(recovered.has_value()) << "arm=" << arm;
    for (const auto& [k, v] : ref) {
      Bytes value;
      ASSERT_EQ((*recovered)->get(key(k), &value), Status::kOk)
          << k << " arm=" << arm;
      EXPECT_EQ(rhik::to_string(value), v) << k << " arm=" << arm;
    }
    for (const auto& [k, v] : pending) {
      Bytes value;
      const Status st = (*recovered)->get(key(k), &value);
      if (st == Status::kOk) {
        EXPECT_EQ(rhik::to_string(value), v) << k << " arm=" << arm;
      } else {
        EXPECT_EQ(st, Status::kNotFound) << k << " arm=" << arm;
      }
    }
  }
}

TEST(CrashRecovery, CutDuringResizeStormKeepsFlushedKeys) {
  // Tiny values drive the index hard: with anticipated_keys = 0 the
  // directory starts at one entry and doubles repeatedly as keys pour
  // in, so cuts keep landing around record-page writes and migrations.
  DeviceConfig cfg = crash_config();
  auto dev = std::make_unique<KvssdDevice>(cfg);
  flash::FaultInjector fi(31337);
  dev->nand().set_fault_injector(&fi);
  Rng rng(99);

  std::map<std::string, std::string> floor;  // flushed state
  std::uint64_t resizes_seen = 0;
  int next_key = 0;
  for (int life = 0; life < 6; ++life) {
    const std::uint64_t resizes_at_start = dev->index().op_stats().resizes;
    const int life_start = next_key;  // keys acked in prior lives but never
                                      // flushed died with the cut — only keys
                                      // acked since recovery can join the floor
    fi.arm_after(rng.next_range(20, 200));
    int since_flush = 0;
    while (!fi.powered_off()) {
      const std::string k = "r" + std::to_string(next_key++);
      const std::string v = "val-" + k;
      if (dev->put(key(k), key(v)) != Status::kOk) continue;
      if (++since_flush >= 50 && ok(dev->flush())) {
        since_flush = 0;
        for (int i = life_start; i < next_key; ++i) {
          const std::string fk = "r" + std::to_string(i);
          floor[fk] = "val-" + fk;
        }
      }
    }
    resizes_seen += dev->index().op_stats().resizes - resizes_at_start;

    auto nand = dev->release_nand();
    dev.reset();
    RecoveryStats rs;
    auto recovered = KvssdDevice::recover(cfg, std::move(nand), &rs);
    ASSERT_TRUE(recovered.has_value()) << "life " << life;
    dev = std::move(recovered).value();
    // Without the dead-weight sweep the stale index generations from
    // these resize storms wedge the device within a few lives and the
    // index rebuild starts shedding entries on failed write-backs.
    EXPECT_GT(rs.dead_blocks_reclaimed, 0u) << "life " << life;
    for (const auto& [k, v] : floor) {
      Bytes value;
      ASSERT_EQ(dev->get(key(k), &value), Status::kOk) << k << " life " << life;
      EXPECT_EQ(rhik::to_string(value), v);
    }
  }
  // The workload must actually have been resizing when cuts landed.
  EXPECT_GT(resizes_seen, 0u);
  EXPECT_GT(floor.size(), 200u);
}

TEST(CrashRecovery, CutInsideIndexMigrationQuantumKeepsFloor) {
  // Incremental doubling drains in background quanta, so a cut routinely
  // lands between bucket migrations: the resize record journaled, some
  // buckets' migrate records durable, others not. Walk the cut across
  // the first destructive ops of the drain (record-page write-backs and
  // journal flushes) and require the floor intact
  // whichever restart path the surviving state allows.
  for (const std::uint32_t arm : {1u, 2u, 3u, 4u}) {
    DeviceConfig cfg = crash_config();
    cfg.checkpoint.enabled = true;
    cfg.checkpoint.slot_blocks = 2;
    cfg.checkpoint.journal_blocks = 2;
    cfg.checkpoint.dirty_pages = 48;
    cfg.checkpoint.pump_pages = 4;
    cfg.rhik.incremental_resize = true;  // the halt-free path under test
    cfg.rhik.incremental_batch = 1;      // one bucket per quantum: wide window
    auto dev = std::make_unique<KvssdDevice>(cfg);
    std::map<std::string, std::string> ref;
    int next = 0;
    for (int i = 0; i < 600; ++i) {
      const std::string k = "m" + std::to_string(next++);
      ASSERT_EQ(dev->put(key(k), key("mv-" + k)), Status::kOk);
      ref[k] = "mv-" + k;
    }
    ASSERT_EQ(dev->flush(), Status::kOk);  // drains any window: clean floor
    ASSERT_FALSE(dev->index().maintenance_active());

    // Acked-but-unflushed puts until a doubling opens its window.
    std::map<std::string, std::string> pending;
    while (!dev->index().maintenance_active()) {
      const std::string k = "m" + std::to_string(next++);
      ASSERT_EQ(dev->put(key(k), key("mv-" + k)), Status::kOk);
      pending[k] = "mv-" + k;
    }

    flash::FaultInjector fi(4100 + arm);
    dev->nand().set_fault_injector(&fi);
    fi.arm_after(arm);
    for (int i = 0; i < 5000 && !fi.powered_off(); ++i) {
      (void)dev->pump_background();
    }
    EXPECT_TRUE(fi.powered_off()) << "arm=" << arm;

    auto nand = dev->release_nand();
    dev.reset();
    RecoveryStats rs;
    auto recovered = KvssdDevice::recover(cfg, std::move(nand), &rs);
    ASSERT_TRUE(recovered.has_value()) << "arm=" << arm;
    dev = std::move(recovered).value();
    EXPECT_EQ(rs.checkpoint_restored + rs.full_scan_fallback, 1u);
    // A fast restore may legitimately re-open the window (the cut left
    // it half-drained on flash); the restored device finishes it in the
    // background, exactly like the live one would.
    for (int i = 0; i < 20000 && dev->index().maintenance_active(); ++i) {
      (void)dev->pump_background();
    }
    EXPECT_FALSE(dev->index().maintenance_active()) << "arm=" << arm;
    for (const auto& [k, v] : ref) {
      Bytes value;
      ASSERT_EQ(dev->get(key(k), &value), Status::kOk) << k << " arm=" << arm;
      EXPECT_EQ(rhik::to_string(value), v) << k << " arm=" << arm;
    }
    for (const auto& [k, v] : pending) {
      Bytes value;
      const Status st = dev->get(key(k), &value);
      if (st == Status::kOk) {
        EXPECT_EQ(rhik::to_string(value), v) << k << " arm=" << arm;
      } else {
        EXPECT_EQ(st, Status::kNotFound) << k << " arm=" << arm;
      }
    }
  }
}

TEST(CrashRecovery, FastRestoreReplaysAcrossResizeWithoutFullScan) {
  // Acceptance check for generation-tagged journaling: a doubling that
  // happens entirely AFTER the last checkpoint rides on the journal —
  // the resize record, per-bucket migrate records and generation-tagged
  // repoints replay on restart with no full-scan fallback.
  DeviceConfig cfg = crash_config();
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.slot_blocks = 2;
  cfg.checkpoint.journal_blocks = 2;
  cfg.checkpoint.dirty_pages = 1u << 30;  // explicit checkpoints only
  cfg.rhik.incremental_resize = true;  // the halt-free path under test
  cfg.rhik.incremental_batch = 1;
  auto dev = std::make_unique<KvssdDevice>(cfg);
  std::map<std::string, std::string> ref;
  int next = 0;
  const auto put_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const std::string k = "f" + std::to_string(next++);
      ASSERT_EQ(dev->put(key(k), key("fv-" + k)), Status::kOk);
      ref[k] = "fv-" + k;
    }
  };
  put_n(200);
  ASSERT_EQ(dev->flush(), Status::kOk);
  ASSERT_EQ(dev->checkpoint_now(), Status::kOk);  // durable image, clean journal

  // Grow through a full doubling, drained by the background pump.
  const std::uint64_t resizes0 = dev->index().op_stats().resizes;
  while (dev->index().op_stats().resizes == resizes0 ||
         dev->index().maintenance_active()) {
    put_n(10);
    (void)dev->pump_background();
  }
  ASSERT_EQ(dev->flush(), Status::kOk);  // journal durable, not rotated

  auto nand = dev->release_nand();
  dev.reset();
  RecoveryStats rs;
  auto recovered = KvssdDevice::recover(cfg, std::move(nand), &rs);
  ASSERT_TRUE(recovered.has_value());
  dev = std::move(recovered).value();
  EXPECT_EQ(rs.checkpoint_restored, 1u);
  EXPECT_EQ(rs.full_scan_fallback, 0u);  // the doubling rode on the journal
  EXPECT_GT(rs.journal_records_replayed, 0u);
  for (const auto& [k, v] : ref) {
    Bytes value;
    ASSERT_EQ(dev->get(key(k), &value), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(value), v) << k;
  }
}

// --- Sharded array recovery --------------------------------------------------

TEST(ShardedRecovery, FlushedStateSurvivesAcrossAllShards) {
  shard::ShardedConfig cfg;
  cfg.num_shards = 4;
  cfg.device = crash_config();
  auto arr = std::make_unique<shard::ShardedKvssd>(cfg);

  const auto value_of = [](int i) {
    std::string v = "value-" + std::to_string(i);
    v.resize(400, 'x');  // big enough that shards span several blocks
    return v;
  };
  for (int i = 0; i < 300; ++i) {
    ASSERT_EQ(arr->put(key("key-" + std::to_string(i)), key(value_of(i))),
              Status::kOk);
  }
  for (int i = 0; i < 300; i += 3) {
    ASSERT_EQ(arr->del(key("key-" + std::to_string(i))), Status::kOk);
  }
  ASSERT_EQ(arr->flush(), Status::kOk);
  // Post-flush tail: acked but possibly still in shard RAM buffers.
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(arr->put(key("tail-" + std::to_string(i)), key("tail-value")),
              Status::kOk);
  }

  auto nands = arr->release_nands();
  ASSERT_EQ(nands.size(), 4u);
  arr.reset();

  auto recovered = shard::ShardedKvssd::recover(cfg, std::move(nands));
  ASSERT_TRUE(recovered.has_value());
  arr = std::move(recovered).value();

  for (int i = 0; i < 300; ++i) {
    Bytes value;
    const Status st = arr->get(key("key-" + std::to_string(i)), &value);
    if (i % 3 == 0) {
      EXPECT_EQ(st, Status::kNotFound) << i;  // deletion stayed deleted
    } else {
      ASSERT_EQ(st, Status::kOk) << i;
      EXPECT_EQ(rhik::to_string(value), value_of(i));
    }
  }
  for (int i = 0; i < 40; ++i) {
    Bytes value;
    const Status st = arr->get(key("tail-" + std::to_string(i)), &value);
    if (st == Status::kOk) {
      EXPECT_EQ(rhik::to_string(value), "tail-value");
    } else {
      EXPECT_EQ(st, Status::kNotFound);  // lost with a shard's RAM buffer
    }
  }

  // The merged snapshot covers every shard's scan.
  const obs::MetricsSnapshot snap = arr->metrics_snapshot();
  EXPECT_GE(snap.counter("recovery.keys_recovered"), 200u);
  EXPECT_GE(snap.counter("recovery.tombstones_seen"), 100u);
  // More than one block per shard.
  EXPECT_GT(snap.counter("recovery.blocks_adopted"), 4u);

  // The array stays fully operational.
  ASSERT_EQ(arr->put(key("post"), key("recovery")), Status::kOk);
  Bytes value;
  ASSERT_EQ(arr->get(key("post"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "recovery");
}

TEST(ShardedRecovery, ShardClocksReseededToMax) {
  shard::ShardedConfig cfg;
  cfg.num_shards = 3;
  cfg.device = crash_config();
  auto arr = std::make_unique<shard::ShardedKvssd>(cfg);
  // Skewed load → skewed shard clocks at power-off.
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(arr->put(key("skew-" + std::to_string(i % 17)),
                       key(std::string(600, 's'))),
              Status::kOk);
  }
  ASSERT_EQ(arr->flush(), Status::kOk);

  auto nands = arr->release_nands();
  arr.reset();
  auto recovered = shard::ShardedKvssd::recover(cfg, std::move(nands));
  ASSERT_TRUE(recovered.has_value());
  arr = std::move(recovered).value();

  // Quiescent right after recovery: every shard clock sits at the max
  // adopted clock, so array time == each shard's time.
  const SimTime t0 = arr->shard_device(0).clock().now();
  EXPECT_GT(t0, 0u);
  for (std::uint32_t s = 1; s < arr->num_shards(); ++s) {
    EXPECT_EQ(arr->shard_device(s).clock().now(), t0) << "shard " << s;
  }
  EXPECT_EQ(arr->sim_time(), t0);
}

TEST(ShardedRecovery, ShardCountMismatchRejected) {
  shard::ShardedConfig cfg;
  cfg.num_shards = 4;
  cfg.device = crash_config();
  auto arr = std::make_unique<shard::ShardedKvssd>(cfg);
  ASSERT_EQ(arr->flush(), Status::kOk);
  auto nands = arr->release_nands();
  arr.reset();

  shard::ShardedConfig wrong = cfg;
  wrong.num_shards = 3;
  auto recovered = shard::ShardedKvssd::recover(wrong, std::move(nands));
  EXPECT_FALSE(recovered.has_value());
  EXPECT_EQ(recovered.status(), Status::kInvalidArgument);
}

TEST(ShardedRecovery, PowerCutOnOneShardRecoversArrayWide) {
  shard::ShardedConfig cfg;
  cfg.num_shards = 4;
  cfg.device = crash_config();
  auto arr = std::make_unique<shard::ShardedKvssd>(cfg);

  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(arr->put(key("floor-" + std::to_string(i)),
                       key("fv-" + std::to_string(i))),
              Status::kOk);
  }
  ASSERT_EQ(arr->flush(), Status::kOk);  // quiescent: safe to poke a shard

  flash::FaultInjector fi(77);
  arr->shard_device(2).nand().set_fault_injector(&fi);
  fi.arm_after(5);
  // Keep writing; ops routed to shard 2 start failing once its power
  // dies, the other shards keep acking.
  for (int i = 0; i < 400; ++i) {
    (void)arr->put(key("burst-" + std::to_string(i)), key(std::string(300, 'b')));
  }
  EXPECT_EQ(fi.stats().power_cuts, 1u);

  auto nands = arr->release_nands();
  arr.reset();
  auto recovered = shard::ShardedKvssd::recover(cfg, std::move(nands));
  ASSERT_TRUE(recovered.has_value());
  arr = std::move(recovered).value();

  for (int i = 0; i < 200; ++i) {
    Bytes value;
    ASSERT_EQ(arr->get(key("floor-" + std::to_string(i)), &value), Status::kOk) << i;
    EXPECT_EQ(rhik::to_string(value), "fv-" + std::to_string(i));
  }
}

// --- Randomized crash-point harness ------------------------------------------

/// Per-key durability model. `floor` is the key's state at the last
/// successful flush (nullopt = absent); `pending` every acknowledged
/// state since, oldest first; `maybe` states whose operation FAILED at
/// the power cut — unacknowledged, so they may or may not be durable
/// (e.g. a partial tear that landed entirely in page padding).
struct KeyHistory {
  std::optional<std::string> floor;
  std::vector<std::optional<std::string>> pending;
  std::vector<std::optional<std::string>> maybe;
};

std::string make_value(const std::string& k, int life, int op, std::size_t len) {
  std::string v = k + "#" + std::to_string(life) + "." + std::to_string(op) + ":";
  if (v.size() < len) v.resize(len, static_cast<char>('a' + op % 26));
  return v;
}

/// What the randomized harness accumulated across all its lives; the
/// meta-assertions differ between the plain and the checkpointed run.
struct HarnessTotals {
  std::uint64_t gc_runs = 0;
  std::uint64_t live_resizes = 0;
  std::uint64_t torn_dropped = 0;
  std::uint64_t extents_dropped = 0;
  std::uint64_t fast_restores = 0;
  std::uint64_t full_scans = 0;
  std::uint64_t journal_records_replayed = 0;
  std::uint64_t torn_injected = 0;
  std::uint64_t power_cuts = 0;
  std::size_t keys_touched = 0;
};

void run_crash_harness(const DeviceConfig& cfg, int crash_points,
                       HarnessTotals* totals) {
  const std::uint64_t seed = rhik::test::harness_seed(0xC0FFEE);
  Rng rng(seed);
  // XORing with (default_rng ^ default_fi) keeps the historical injector
  // seed for the default run while still varying it with RHIK_TEST_SEED.
  flash::FaultInjector fi(seed ^ (0xC0FFEEULL ^ 0xFA17ULL));

  auto dev = std::make_unique<KvssdDevice>(cfg);
  dev->nand().set_fault_injector(&fi);

  std::map<std::string, KeyHistory> model;
  std::uint64_t universe = 40;  // grows every life → keeps forcing resizes
  std::uint64_t gc_runs = 0;
  std::uint64_t live_resizes = 0;
  std::uint64_t torn_dropped = 0;
  std::uint64_t extents_dropped = 0;

  for (int life = 0; life < crash_points; ++life) {
    universe += 4;
    const std::uint64_t resizes_at_start = dev->index().op_stats().resizes;
    fi.arm_after(rng.next_range(1, 120));

    int op = 0;
    while (!fi.powered_off()) {
      ASSERT_LT(++op, 200000) << "life " << life << ": injector never fired"
                              << " (seed 0x" << std::hex << seed << ")";
      const std::string k = "key-" + std::to_string(rng.next_below(universe));
      const std::uint64_t dice = rng.next_below(100);
      if (dice < 55) {
        const std::size_t len = rng.next_below(100) < 6
                                    ? rng.next_range(6000, 9000)  // extent
                                    : rng.next_range(80, 1200);
        const std::string v = make_value(k, life, op, len);
        const Status st = dev->put(key(k), key(v));
        if (st == Status::kOk) {
          model[k].pending.emplace_back(v);
        } else {
          model[k].maybe.emplace_back(v);  // unacked, possibly durable
        }
      } else if (dice < 72) {
        const Status st = dev->del(key(k));
        if (st == Status::kOk) {
          model[k].pending.emplace_back(std::nullopt);
        } else if (st != Status::kNotFound) {
          model[k].maybe.emplace_back(std::nullopt);
        }
      } else if (dice < 92) {
        Bytes out;
        (void)dev->get(key(k), &out);
      } else if (dice < 93) {
        // Explicit GC pass: relocation + victim erase are destructive
        // ops, so cuts land inside the collector too. Logically a no-op
        // (duplicates across source/dest resolve by seq), so the
        // durability model needs no update.
        (void)dev->gc().collect_one();
      } else if (dice < 95) {
        // Background GC quantum, exactly as a shard worker's idle-window
        // pump would issue it: cuts land inside a bounded work slice —
        // pair copied but victim not yet erased, relocation buffer
        // mid-program, victim erase at quantum end. Also logically a
        // no-op for the durability model.
        (void)dev->pump_background();
      } else if (ok(dev->flush())) {
        for (auto& [mk, h] : model) {
          if (!h.pending.empty()) {
            h.floor = h.pending.back();
            h.pending.clear();
          }
        }
      }
    }
    gc_runs += dev->gc().stats().runs;
    live_resizes += dev->index().op_stats().resizes - resizes_at_start;

    // --- power is gone: rebuild from flash ------------------------------
    auto nand = dev->release_nand();
    dev.reset();
    RecoveryStats rstats;
    auto recovered = KvssdDevice::recover(cfg, std::move(nand), &rstats);
    ASSERT_TRUE(recovered.has_value())
        << "life " << life << ": " << to_string(recovered.status());
    dev = std::move(recovered).value();
    torn_dropped += rstats.torn_pages_dropped;
    extents_dropped += rstats.incomplete_extents_dropped;
    totals->fast_restores += rstats.checkpoint_restored;
    totals->full_scans += rstats.full_scan_fallback;
    totals->journal_records_replayed += rstats.journal_records_replayed;

    // Every key must read back as SOME acknowledged state at-or-after
    // its durability floor (or an unacked maybe-state from the cut).
    for (auto& [k, h] : model) {
      Bytes out;
      const Status st = dev->get(key(k), &out);
      std::optional<std::string> observed;
      if (st == Status::kOk) {
        observed = rhik::to_string(out);
      } else {
        ASSERT_EQ(st, Status::kNotFound) << "life " << life << " key " << k;
      }
      bool allowed = observed == h.floor;
      for (const auto& s : h.pending) allowed = allowed || observed == s;
      for (const auto& s : h.maybe) allowed = allowed || observed == s;
      ASSERT_TRUE(allowed) << "life " << life << " key " << k << ": recovered "
                           << (observed ? ("\"" + observed->substr(0, 40) + "\"")
                                        : std::string("<absent>"))
                           << " which was never an admissible state (floor "
                           << (h.floor ? h.floor->substr(0, 40)
                                       : std::string("<absent>"))
                           << ", " << h.pending.size() << " pending, "
                           << h.maybe.size() << " maybe, seed 0x" << std::hex
                           << seed << ")";
      // Whatever recovery surfaced is durable now: it is the new floor.
      h.floor = std::move(observed);
      h.pending.clear();
      h.maybe.clear();
    }
  }

  totals->gc_runs = gc_runs;
  totals->live_resizes = live_resizes;
  totals->torn_dropped = torn_dropped;
  totals->extents_dropped = extents_dropped;
  totals->torn_injected = fi.stats().torn_pages;
  totals->power_cuts = fi.stats().power_cuts;
  totals->keys_touched = model.size();
}

TEST(CrashHarness, RandomizedCrashPoints) {
  constexpr int kCrashPoints = 220;
  HarnessTotals t;
  run_crash_harness(crash_config(), kCrashPoints, &t);
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(t.power_cuts, static_cast<std::uint64_t>(kCrashPoints));
  // The mixed workload really exercised what the harness claims: GC ran,
  // the index resized mid-life, and torn pages were detected + dropped.
  EXPECT_GT(t.gc_runs, 0u);
  EXPECT_GT(t.live_resizes, 0u);
  EXPECT_GT(t.torn_dropped, 0u);
  EXPECT_GT(t.torn_injected, 0u);
  EXPECT_GT(t.extents_dropped, 0u);
  EXPECT_GT(t.keys_touched, 200u);  // universe growth kept adding fresh keys
  // No checkpoint region: every restart was a full-device scan.
  EXPECT_EQ(t.fast_restores, 0u);
  EXPECT_EQ(t.full_scans, static_cast<std::uint64_t>(kCrashPoints));
}

TEST(CrashHarness, RandomizedCrashPointsWithCheckpointing) {
  // The same 220-cut gauntlet with the checkpoint + journal machinery
  // live: checkpoints race the cuts (slot programs, journal flushes and
  // superblock commits are all destructive ops the countdown can land
  // on), and restarts take whichever path the surviving on-flash state
  // allows. The durability model is path-agnostic, so admissibility of
  // every recovered key is checked exactly as in the plain run.
  constexpr int kCrashPoints = 220;
  DeviceConfig cfg = crash_config();
  cfg.checkpoint.enabled = true;
  cfg.checkpoint.slot_blocks = 2;    // payload cap: 32 tiny pages per slot
  cfg.checkpoint.journal_blocks = 2;
  cfg.checkpoint.dirty_pages = 48;   // checkpoint often → both paths exercised
  cfg.checkpoint.pump_pages = 4;     // incremental pumping mid-workload
  HarnessTotals t;
  run_crash_harness(cfg, kCrashPoints, &t);
  if (::testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(t.power_cuts, static_cast<std::uint64_t>(kCrashPoints));
  EXPECT_GT(t.gc_runs, 0u);
  EXPECT_GT(t.live_resizes, 0u);
  EXPECT_GT(t.torn_injected, 0u);
  EXPECT_GT(t.keys_touched, 200u);
  // Both restart paths must really have run: fast restores with journal
  // replay when a durable checkpoint survived the cut, and the full-scan
  // fallback when one didn't (torn slot, gapped journal tail, failed
  // replay).
  EXPECT_GT(t.fast_restores, 0u);
  EXPECT_GT(t.full_scans, 0u);
  EXPECT_GT(t.journal_records_replayed, 0u);
  EXPECT_EQ(t.fast_restores + t.full_scans,
            static_cast<std::uint64_t>(kCrashPoints));
}

}  // namespace
}  // namespace rhik::kvssd
