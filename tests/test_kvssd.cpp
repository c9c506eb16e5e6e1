// Integration tests for the emulated KVSSD device: the five-command set,
// key verification, GC under churn, async submission, capacity limits.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "hash/murmur.hpp"
#include "kvssd/device.hpp"
#include "kvssd/pm983_model.hpp"

namespace rhik::kvssd {
namespace {

DeviceConfig small_config(IndexKind kind = IndexKind::kRhik) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(128);  // 8 MiB device
  cfg.dram_cache_bytes = 64 * 1024;
  cfg.index_kind = kind;
  if (kind == IndexKind::kMlHash) {
    cfg.mlhash = index::MlHashConfig::for_keys(20000, cfg.geometry.page_size);
  }
  return cfg;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }

TEST(Kvssd, PutGetDeleteRoundTrip) {
  KvssdDevice dev(small_config());
  ASSERT_EQ(dev.put(key("hello"), key("world")), Status::kOk);
  Bytes value;
  ASSERT_EQ(dev.get(key("hello"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "world");
  EXPECT_EQ(dev.key_count(), 1u);

  ASSERT_EQ(dev.del(key("hello")), Status::kOk);
  EXPECT_EQ(dev.get(key("hello"), &value), Status::kNotFound);
  EXPECT_EQ(dev.key_count(), 0u);
}

TEST(Kvssd, GetMissingIsNotFound) {
  KvssdDevice dev(small_config());
  Bytes value;
  EXPECT_EQ(dev.get(key("nope"), &value), Status::kNotFound);
  EXPECT_EQ(dev.del(key("nope")), Status::kNotFound);
  EXPECT_EQ(dev.stats().not_found, 2u);
}

TEST(Kvssd, UpdateReplacesValueAndReclaimsAccounting) {
  KvssdDevice dev(small_config());
  ASSERT_EQ(dev.put(key("k"), key("version-1")), Status::kOk);
  const std::uint64_t live1 = dev.live_bytes();
  ASSERT_EQ(dev.put(key("k"), key("v2")), Status::kOk);
  Bytes value;
  ASSERT_EQ(dev.get(key("k"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "v2");
  EXPECT_EQ(dev.key_count(), 1u);
  EXPECT_LT(dev.live_bytes(), live1);  // shorter value, old version stale
}

TEST(Kvssd, ExistIsIndexOnly) {
  KvssdDevice dev(small_config());
  ASSERT_EQ(dev.put(key("present"), key("v")), Status::kOk);
  const auto data_reads = dev.store().stats().pairs_read;
  EXPECT_EQ(dev.exist(key("present")), Status::kOk);
  EXPECT_EQ(dev.exist(key("absent")), Status::kNotFound);
  // Membership checking never read KV pairs from flash (§IV-A3).
  EXPECT_EQ(dev.store().stats().pairs_read, data_reads);
}

TEST(Kvssd, ExistReportsIndexReadErrors) {
  // exist() shares get()'s index lookup: with the record pages on flash
  // and the power gone, a membership probe reports the read error, never
  // "not found".
  DeviceConfig cfg = small_config();
  cfg.dram_cache_bytes = cfg.geometry.page_size;  // one cached record page
  flash::FaultInjector fi;  // outlives dev, which holds it
  KvssdDevice dev(cfg);
  constexpr int kKeys = 1000;
  const auto key_of = [](int i) { return "key-" + std::to_string(i); };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(dev.put(key(key_of(i)), key("v")), Status::kOk) << i;
  }
  ASSERT_EQ(dev.flush(), Status::kOk);
  ASSERT_GT(dev.index().size(), 0u);
  dev.nand().set_fault_injector(&fi);
  fi.arm_after(1);
  ASSERT_EQ(dev.put(key("cut"), key("v")), Status::kOk);  // buffered
  EXPECT_NE(dev.flush(), Status::kOk);  // power dies programming it
  ASSERT_TRUE(fi.powered_off());

  // The cut's put left its record page dirty in DRAM, and a page whose
  // write-back fails is never dropped, so that page answers its own
  // keys; every other lookup has to read flash. get() also reads each
  // pair from flash, so it fails for every key.
  const std::uint64_t cached_group =
      dev.index().locality_group(dev.signature(key("cut")));
  Bytes value;
  int get_errors = 0;
  for (int i = 0; i < kKeys; ++i) {
    get_errors += dev.get(key(key_of(i)), &value) == Status::kIoError;
  }
  EXPECT_EQ(get_errors, kKeys);
  int exist_errors = 0;
  for (int i = 0; i < kKeys; ++i) {
    const bool cached =
        dev.index().locality_group(dev.signature(key(key_of(i)))) == cached_group;
    const Status s = dev.exist(key(key_of(i)));
    EXPECT_EQ(s, cached ? Status::kOk : Status::kIoError) << i;
    exist_errors += s == Status::kIoError;
  }
  EXPECT_GT(exist_errors, kKeys / 2);

  // Power back: every key exists again.
  fi.power_on();
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_EQ(dev.exist(key(key_of(i))), Status::kOk) << i;
  }
  dev.nand().set_fault_injector(nullptr);
}

TEST(Kvssd, InvalidArgumentsRejected) {
  KvssdDevice dev(small_config());
  Bytes value;
  EXPECT_EQ(dev.put(key(""), key("v")), Status::kInvalidArgument);
  const std::string long_key(300, 'k');  // > 255 B SNIA cap
  EXPECT_EQ(dev.put(key(long_key), key("v")), Status::kInvalidArgument);
  EXPECT_EQ(dev.get(key(""), &value), Status::kInvalidArgument);
  const std::string huge_value(dev.store().max_value_size(1) + 1, 'v');
  EXPECT_EQ(dev.put(key("k"), key(huge_value)), Status::kInvalidArgument);
}

TEST(Kvssd, LargeValuesUpToBlockExtent) {
  DeviceConfig cfg = small_config();
  KvssdDevice dev(cfg);
  // Multi-page extent (tiny geometry: 4 KiB pages, 16 per block).
  const std::string big(30000, 'B');
  ASSERT_EQ(dev.put(key("big"), key(big)), Status::kOk);
  Bytes value;
  ASSERT_EQ(dev.get(key("big"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), big);
}

TEST(Kvssd, SignatureOfKeyIsMurmur64ByDefault) {
  KvssdDevice dev(small_config());
  EXPECT_EQ(dev.signature(key("abc")), hash::murmur2_64(key("abc")));
}

TEST(Kvssd, FillsManyKeysAcrossResizes) {
  DeviceConfig cfg = small_config();
  cfg.dram_cache_bytes = 16 * 4096;
  KvssdDevice dev(cfg);
  std::unordered_map<std::string, std::string> ref;
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) {
    const std::string k = "key-" + std::to_string(i);
    const std::string v(rng.next_range(8, 64), static_cast<char>('a' + i % 26));
    const Status s = dev.put(key(k), key(v));
    if (s == Status::kDeviceFull) break;
    ASSERT_EQ(s, Status::kOk) << i;
    ref[k] = v;
  }
  EXPECT_GT(dev.index().op_stats().resizes, 0u);  // grew past initial size
  EXPECT_EQ(dev.key_count(), ref.size());
  for (const auto& [k, v] : ref) {
    Bytes value;
    ASSERT_EQ(dev.get(key(k), &value), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(value), v);
  }
}

TEST(Kvssd, QuiescentDeviceDrainsMigrationInBackground) {
  DeviceConfig cfg = small_config();
  cfg.rhik.incremental_resize = true;
  cfg.rhik.incremental_batch = 1;  // one bucket per quantum: many pumps
  KvssdDevice dev(cfg);
  // Fill until a doubling opens a migration window.
  int stored = 0;
  while (!dev.index().maintenance_active()) {
    const std::string k = "key-" + std::to_string(stored++);
    ASSERT_EQ(dev.put(key(k), key("v")), Status::kOk);
  }
  // No further foreground traffic: the idle pump alone must drain the
  // migration in bounded quanta — the device never wedges half-doubled.
  int pumps = 0;
  while (dev.pump_background() && pumps < 100000) ++pumps;
  EXPECT_FALSE(dev.index().maintenance_active());
  EXPECT_GT(pumps, 0);
  // Everything stored before and during the window still resolves.
  for (int i = 0; i < stored; ++i) {
    Bytes value;
    ASSERT_EQ(dev.get(key("key-" + std::to_string(i)), &value), Status::kOk);
  }
}

TEST(Kvssd, GcReclaimsChurnedSpace) {
  DeviceConfig cfg = small_config();
  KvssdDevice dev(cfg);
  Rng rng(9);
  // Overwrite a small working set far past device capacity: without GC
  // this is ~3x the raw flash.
  const std::string v(2000, 'x');
  for (int i = 0; i < 12000; ++i) {
    const std::string k = "churn-" + std::to_string(rng.next_below(100));
    ASSERT_EQ(dev.put(key(k), key(v)), Status::kOk) << i;
  }
  EXPECT_GT(dev.gc().stats().blocks_reclaimed, 0u);
  // Reclamation now normally rides the incremental background quanta;
  // foreground invocations only happen under free-block pressure.
  EXPECT_GT(dev.stats().gc_invocations + dev.gc().stats().background_quanta, 0u);
  // Working set still fully readable.
  for (int i = 0; i < 100; ++i) {
    Bytes value;
    const std::string k = "churn-" + std::to_string(i);
    if (dev.get(key(k), &value) == Status::kOk) {
      EXPECT_EQ(value.size(), v.size());
    }
  }
}

TEST(Kvssd, GcRelocatedVersionsInOnePageResolveByEpoch) {
  // A snapshot retains k's first version. GC moves the current version
  // into a cold block ahead of the retained one, then collects that cold
  // block: both versions of k land in one page with the older one
  // appended last. get must still see the current version, read_at the
  // pinned one.
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry{4096, 2, 64, 32};  // 2-page blocks
  cfg.gc = {.policy = ftl::GcPolicy::kGreedy,
            .hot_cold_separation = true,
            .background_free_blocks = 0,
            .wear_leveling_threshold = 0.0};
  KvssdDevice dev(cfg);
  const std::string big(3000, 'x');  // one per page; small pairs fit beside
  const std::string v1(100, '1');
  const std::string v2(90, '2');
  const auto put = [&](const std::string& k, const std::string& v) {
    ASSERT_EQ(dev.put(key(k), key(v)), Status::kOk) << k;
  };
  // Hot block A: [k=v1 x0 | x1].
  put("k", v1);
  put("x0", big);
  put("x1", big);
  // Hot block B: [z0 del(z0) k=v2 | w], with z0 stale before the pin.
  put("z0", big);
  ASSERT_EQ(dev.del(key("z0")), Status::kOk);
  auto snap = dev.open_snapshot();
  ASSERT_TRUE(snap);
  put("k", v2);
  put("w", big);
  // Greedy victims: B (k=v2 to cold block D's first page), A (x0, then
  // the retained k=v1, to D's second page), then D (k=v2, then k=v1,
  // into one cold page). Each victim page is read once: current and
  // retained versions alike are copied out of that read.
  const std::uint64_t pairs_read_before = dev.store().stats().pairs_read;
  for (int i = 0; i < 3; ++i) {
    const auto victim = dev.allocator().pick_victim(ftl::GcPolicy::kGreedy);
    ASSERT_TRUE(victim) << i;
    const std::uint32_t pages = dev.allocator().pages_used(*victim);
    const std::uint64_t reads_before = dev.nand().stats().page_reads;
    const std::uint64_t gc_reads_before = dev.gc().stats().pages_read;
    ASSERT_EQ(dev.gc().collect_one(), Status::kOk) << i;
    EXPECT_EQ(dev.nand().stats().page_reads - reads_before, pages) << i;
    EXPECT_EQ(dev.gc().stats().pages_read - gc_reads_before, pages) << i;
  }
  ASSERT_EQ(dev.gc().stats().retained_relocated, 2u);
  EXPECT_EQ(dev.store().stats().pairs_read, pairs_read_before);

  Bytes value;
  ASSERT_EQ(dev.get(key("k"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), v2);
  ASSERT_EQ(dev.read_at(*snap, key("k"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), v1);
}

TEST(Kvssd, RetainsOnlyVersionsAPinCanRead) {
  // One pin, then four keys put and deleted after it, and k overwritten
  // twice: every dying version but k's first is stamped above the pin,
  // which can never read it, so only k's first version is retained.
  KvssdDevice dev(small_config());
  ASSERT_EQ(dev.put(key("k"), key("v1")), Status::kOk);
  auto snap = dev.open_snapshot();
  ASSERT_TRUE(snap);
  ASSERT_EQ(dev.put(key("k"), key("v2")), Status::kOk);
  ASSERT_EQ(dev.put(key("k"), key("v3")), Status::kOk);
  for (int i = 0; i < 4; ++i) {
    const std::string n = "n" + std::to_string(i);
    ASSERT_EQ(dev.put(key(n), key("x")), Status::kOk);
    ASSERT_EQ(dev.del(key(n)), Status::kOk);
  }
  EXPECT_EQ(dev.metrics_snapshot().counter("retainer.captured"), 1u);
  EXPECT_EQ(dev.snapshots().registry.retained_bytes(),
            ftl::FlashKvStore::pair_bytes(1, 2));

  Bytes value;
  ASSERT_EQ(dev.read_at(*snap, key("k"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "v1");
  EXPECT_EQ(dev.read_at(*snap, key("n0"), &value), Status::kNotFound);
  ASSERT_EQ(dev.get(key("k"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "v3");
  EXPECT_EQ(dev.release_snapshot(*snap), Status::kOk);
}

TEST(Kvssd, DeviceFullSurfacesWhenNoReclaimableSpace) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(16);  // 1 MiB device
  KvssdDevice dev(cfg);
  Status last = Status::kOk;
  int stored = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string k = "fill-" + std::to_string(i);
    last = dev.put(key(k), key(std::string(900, 'f')));
    if (!ok(last)) break;
    ++stored;
  }
  EXPECT_EQ(last, Status::kDeviceFull);
  EXPECT_GT(stored, 0);
  // Already-stored data is unaffected.
  Bytes value;
  EXPECT_EQ(dev.get(key("fill-0"), &value), Status::kOk);
  // Deleting makes room again.
  for (int i = 0; i < stored / 2; ++i) {
    ASSERT_EQ(dev.del(key("fill-" + std::to_string(i))), Status::kOk);
  }
  EXPECT_EQ(dev.put(key("again"), key("fits-now")), Status::kOk);
}

TEST(Kvssd, AsyncDrainsAndPipelinesOverhead) {
  DeviceConfig cfg = small_config();
  cfg.cmd_overhead_ns = 10 * kMicrosecond;
  cfg.queue_depth = 32;

  // Sync run.
  KvssdDevice sync_dev(cfg);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(sync_dev.put(key("k" + std::to_string(i)), key("v")), Status::kOk);
  }
  const SimTime sync_time = sync_dev.clock().now();

  // Async run of the same workload.
  const auto owned = [](const std::string& s) { return Bytes(s.begin(), s.end()); };
  KvssdDevice async_dev(cfg);
  int completed = 0;
  async_dev.set_completion_sink(
      [&](std::vector<api::TaggedCompletion>&& batch) {
        for (const auto& c : batch) {
          EXPECT_EQ(c.status, Status::kOk);
          ++completed;
        }
      });
  for (int i = 0; i < 200; ++i) {
    async_dev.submit({api::Command::Op::kPut, static_cast<std::uint64_t>(i),
                      owned("k" + std::to_string(i)), owned("v")});
  }
  EXPECT_EQ(async_dev.drain(), 200u);
  EXPECT_EQ(completed, 200);
  // Async amortizes the fixed command overhead across the queue depth.
  EXPECT_LT(async_dev.clock().now(), sync_time);

  Bytes value;
  EXPECT_EQ(async_dev.get(key("k199"), &value), Status::kOk);
}

TEST(Kvssd, AsyncDeleteCompletesThroughQueue) {
  KvssdDevice dev(small_config());
  ASSERT_EQ(dev.put(key("gone-soon"), key("v")), Status::kOk);
  Status del_status = Status::kBusy;
  dev.set_completion_sink([&](std::vector<api::TaggedCompletion>&& batch) {
    ASSERT_EQ(batch.size(), 1u);
    del_status = batch[0].status;
  });
  dev.submit({api::Command::Op::kDel, 0,
              Bytes{'g', 'o', 'n', 'e', '-', 's', 'o', 'o', 'n'}, {}});
  EXPECT_EQ(dev.drain(), 1u);
  EXPECT_EQ(del_status, Status::kOk);
  Bytes value;
  EXPECT_EQ(dev.get(key("gone-soon"), &value), Status::kNotFound);
}

TEST(Kvssd, DrainOnEmptyQueueIsNoop) {
  KvssdDevice dev(small_config());
  EXPECT_EQ(dev.drain(), 0u);
  const SimTime t = dev.clock().now();
  EXPECT_EQ(dev.drain(), 0u);
  EXPECT_EQ(dev.clock().now(), t);
}

TEST(Kvssd, MlHashBackendWorksEndToEnd) {
  KvssdDevice dev(small_config(IndexKind::kMlHash));
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(dev.put(key("mk" + std::to_string(i)), key("value")), Status::kOk);
  }
  Bytes value;
  ASSERT_EQ(dev.get(key("mk42"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "value");
  ASSERT_EQ(dev.del(key("mk42")), Status::kOk);
  EXPECT_EQ(dev.get(key("mk42"), &value), Status::kNotFound);
}

TEST(Kvssd, FlushPersistsOpenBuffers) {
  KvssdDevice dev(small_config());
  ASSERT_EQ(dev.put(key("durable"), key("bits")), Status::kOk);
  ASSERT_EQ(dev.flush(), Status::kOk);
  EXPECT_FALSE(dev.store().open_page().has_value());
  Bytes value;
  ASSERT_EQ(dev.get(key("durable"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), "bits");
}

TEST(Kvssd, LatencyHistogramsPopulate) {
  KvssdDevice dev(small_config());
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(dev.put(key("h" + std::to_string(i)), key("v")), Status::kOk);
  }
  Bytes value;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(dev.get(key("h" + std::to_string(i)), &value), Status::kOk);
  }
  const obs::MetricsSnapshot snap = dev.metrics_snapshot();
  const Histogram* put_ns = snap.timer("op.put.total_ns");
  const Histogram* get_ns = snap.timer("op.get.total_ns");
  ASSERT_NE(put_ns, nullptr);
  ASSERT_NE(get_ns, nullptr);
  EXPECT_EQ(put_ns->count(), 50u);
  EXPECT_EQ(get_ns->count(), 50u);
  EXPECT_GT(get_ns->mean(), 0.0);
}

TEST(Pm983Model, ShapesMatchThePaper) {
  const Pm983Model model;
  // Async large-value throughput approaches the bandwidth cap.
  EXPECT_NEAR(model.throughput_mib(OpDir::kWrite, true, 2 << 20),
              model.write_bw_mib, model.write_bw_mib * 0.05);
  // Small-value throughput is IOPS-bound, far below the bandwidth cap.
  EXPECT_LT(model.throughput_mib(OpDir::kWrite, true, 4096),
            model.write_bw_mib / 2);
  // Reads outpace writes; async outpaces sync at small sizes.
  EXPECT_GT(model.throughput_ops(OpDir::kRead, true, 4096),
            model.throughput_ops(OpDir::kWrite, true, 4096));
  EXPECT_GT(model.throughput_ops(OpDir::kWrite, true, 4096),
            model.throughput_ops(OpDir::kWrite, false, 4096));
}

}  // namespace
}  // namespace rhik::kvssd
