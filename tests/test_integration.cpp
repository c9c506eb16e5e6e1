// End-to-end system tests: long mixed workloads across resizes, GC and
// both index schemes; restart-from-checkpoint; RHIK/baseline equivalence.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "hash/murmur.hpp"
#include "index/rhik/rhik_index.hpp"
#include "kvssd/device.hpp"
#include "workload/keygen.hpp"
#include "workload/replay.hpp"

namespace rhik {
namespace {

using kvssd::DeviceConfig;
using kvssd::IndexKind;
using kvssd::KvssdDevice;

DeviceConfig device_config(IndexKind kind, std::uint32_t blocks = 256) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(blocks);
  cfg.dram_cache_bytes = 32 * 4096;
  cfg.index_kind = kind;
  if (kind == IndexKind::kMlHash) {
    cfg.mlhash = index::MlHashConfig::for_keys(40000, cfg.geometry.page_size);
  }
  return cfg;
}

TEST(Integration, MixedWorkloadSurvivesResizesAndGc) {
  // Small device (4 MiB) so the churn genuinely cycles the GC.
  KvssdDevice dev(device_config(IndexKind::kRhik, /*blocks=*/64));
  std::unordered_map<std::uint64_t, std::uint32_t> live;  // id -> value size
  Rng rng(2024);

  for (int step = 0; step < 25000; ++step) {
    const std::uint64_t id = rng.next_below(3000);
    const Bytes k = workload::key_for_id(id, 16);
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 6) {
      const auto vsize = static_cast<std::uint32_t>(rng.next_range(8, 600));
      Bytes v(vsize);
      workload::fill_value(id, v);
      ASSERT_EQ(dev.put(k, v), Status::kOk) << "step " << step;
      live[id] = vsize;
    } else if (action < 9) {
      Bytes v;
      const Status s = dev.get(k, &v);
      if (live.count(id)) {
        ASSERT_EQ(s, Status::kOk) << "step " << step << " id " << id;
        EXPECT_EQ(v.size(), live[id]);
        EXPECT_TRUE(workload::check_value(id, v));
      } else {
        EXPECT_EQ(s, Status::kNotFound) << "step " << step;
      }
    } else {
      const Status s = dev.del(k);
      EXPECT_EQ(s, live.erase(id) ? Status::kOk : Status::kNotFound);
    }
  }
  EXPECT_EQ(dev.key_count(), live.size());
  EXPECT_GT(dev.index().op_stats().resizes, 0u);
  EXPECT_GT(dev.gc().stats().blocks_reclaimed, 0u);
  EXPECT_EQ(dev.index().op_stats().writeback_failures, 0u);

  // Full verification pass.
  for (const auto& [id, vsize] : live) {
    Bytes v;
    ASSERT_EQ(dev.get(workload::key_for_id(id, 16), &v), Status::kOk);
    EXPECT_EQ(v.size(), vsize);
    EXPECT_TRUE(workload::check_value(id, v));
  }
}

TEST(Integration, RhikAndMlHashAgreeOnWorkload) {
  // Same operation stream to both backends: identical visible semantics
  // (as long as the fixed-capacity baseline accepts every key).
  KvssdDevice rhik_dev(device_config(IndexKind::kRhik));
  KvssdDevice ml_dev(device_config(IndexKind::kMlHash));
  Rng rng(77);
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t id = rng.next_below(1500);
    const Bytes k = workload::key_for_id(id, 16);
    const int action = static_cast<int>(rng.next_below(4));
    if (action < 2) {
      Bytes v(rng.next_range(8, 200));
      workload::fill_value(id, v);
      const Status a = rhik_dev.put(k, v);
      const Status b = ml_dev.put(k, v);
      ASSERT_EQ(a, b) << step;
    } else if (action == 2) {
      Bytes va, vb;
      const Status a = rhik_dev.get(k, &va);
      const Status b = ml_dev.get(k, &vb);
      ASSERT_EQ(a, b) << step;
      if (ok(a)) {
        EXPECT_EQ(va, vb);
      }
    } else {
      ASSERT_EQ(rhik_dev.del(k), ml_dev.del(k)) << step;
    }
  }
  EXPECT_EQ(rhik_dev.key_count(), ml_dev.key_count());
}

TEST(Integration, RestartFromDirectoryCheckpoint) {
  // Firmware-restart scenario: flush everything, persist the directory
  // image, rebuild the in-DRAM index over the same flash, verify reads.
  SimClock clock;
  flash::NandDevice nand(flash::Geometry::tiny(256),
                         flash::NandLatency::kvemu_defaults(), &clock);
  ftl::PageAllocator alloc(&nand, 2);
  ftl::FlashKvStore store(&nand, &alloc);

  std::unordered_map<std::uint64_t, std::string> ref;
  Bytes dir_image;
  index::RhikConfig cfg;
  {
    index::RhikIndex index(&nand, &alloc, cfg, 1 << 20);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t id = rng.next_below(100000);
      const Bytes k = workload::key_for_id(id, 16);
      const std::string v = "value-" + std::to_string(id);
      const std::uint64_t sig = hash::murmur2_64(k);
      auto ppa = store.write_pair(sig, k, as_bytes(v));
      ASSERT_TRUE(ppa);
      const auto old = index.lookup(sig);
      ASSERT_TRUE(old);
      if (*old) {
        store.note_stale(**old, ftl::FlashKvStore::pair_bytes(k.size(), v.size()));
      }
      ASSERT_EQ(index.put(sig, *ppa), Status::kOk);
      ref[id] = v;
    }
    ASSERT_EQ(store.flush(), Status::kOk);
    ASSERT_EQ(index.flush(), Status::kOk);
    ASSERT_EQ(index.serialize_image(dir_image), Status::kOk);
  }

  // "Restart": new index object over the same NAND + allocator state.
  index::RhikIndex revived(&nand, &alloc, cfg, 1 << 20);
  ASSERT_EQ(revived.load_image(dir_image), Status::kOk);
  EXPECT_EQ(revived.size(), ref.size());
  for (const auto& [id, v] : ref) {
    const Bytes k = workload::key_for_id(id, 16);
    const std::uint64_t sig = hash::murmur2_64(k);
    const auto ppa = revived.lookup(sig);
    ASSERT_TRUE(ppa && ppa->has_value()) << id;
    Bytes got_key, got_value;
    ASSERT_EQ(store.read_pair(**ppa, sig, &got_key, &got_value), Status::kOk);
    EXPECT_EQ(got_key, k);
    EXPECT_EQ(rhik::to_string(got_value), v);
  }
}

TEST(Integration, IncrementalResizeDeviceEndToEnd) {
  DeviceConfig cfg = device_config(IndexKind::kRhik);
  cfg.rhik.incremental_resize = true;
  cfg.rhik.incremental_batch = 2;
  KvssdDevice dev(cfg);
  std::unordered_map<std::uint64_t, std::uint32_t> live;
  Rng rng(31);
  for (int step = 0; step < 8000; ++step) {
    const std::uint64_t id = rng.next_below(2500);
    Bytes v(rng.next_range(8, 300));
    workload::fill_value(id, v);
    ASSERT_EQ(dev.put(workload::key_for_id(id, 16), v), Status::kOk) << step;
    live[id] = static_cast<std::uint32_t>(v.size());
  }
  EXPECT_GE(dev.index().op_stats().resizes, 1u);
  // No stop-the-world stall was charged in incremental mode.
  EXPECT_EQ(dev.clock().total_stall(), 0u);
  for (const auto& [id, vsize] : live) {
    Bytes v;
    ASSERT_EQ(dev.get(workload::key_for_id(id, 16), &v), Status::kOk);
    EXPECT_EQ(v.size(), vsize);
  }
}

TEST(Integration, StopTheWorldStallVisibleAtDeviceLevel) {
  DeviceConfig cfg = device_config(IndexKind::kRhik);
  cfg.rhik.incremental_resize = false;
  KvssdDevice dev(cfg);
  Rng rng(41);
  for (int i = 0; i < 6000; ++i) {
    Bytes v(32);
    workload::fill_value(i, v);
    ASSERT_EQ(dev.put(workload::key_for_id(i, 16), v), Status::kOk);
  }
  EXPECT_GT(dev.index().op_stats().resizes, 0u);
  EXPECT_GT(dev.clock().total_stall(), 0u);  // Fig. 7's measured quantity
}

TEST(Integration, ReplayHarnessOnBothBackends) {
  workload::Trace trace;
  Rng rng(55);
  for (std::uint64_t i = 0; i < 1500; ++i) {
    trace.push_back({workload::OpType::kPut, i, 128});
  }
  for (int i = 0; i < 3000; ++i) {
    trace.push_back({workload::OpType::kGet, rng.next_below(1500), 0});
  }

  KvssdDevice rhik_dev(device_config(IndexKind::kRhik));
  KvssdDevice ml_dev(device_config(IndexKind::kMlHash));
  workload::ReplayOptions opts;
  opts.verify_values = true;
  const auto r1 = workload::replay(rhik_dev, trace, opts);
  const auto r2 = workload::replay(ml_dev, trace, opts);
  EXPECT_EQ(r1.failed_ops, 0u);
  EXPECT_EQ(r2.failed_ops, 0u);
  EXPECT_EQ(r1.not_found, 0u);
  EXPECT_EQ(r2.not_found, 0u);
  // RHIK's bounded metadata cost shows up as fewer index flash reads.
  EXPECT_LE(rhik_dev.index().op_stats().reads_per_lookup.max(), 1u);
}

}  // namespace
}  // namespace rhik
