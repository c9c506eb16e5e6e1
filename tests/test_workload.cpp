// Tests for the workload module: Table-I size distributions, key/value
// material, trace I/O, IBM COS synthesis, and replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "workload/ibm_cos.hpp"
#include "workload/keygen.hpp"
#include "workload/replay.hpp"
#include "workload/size_dist.hpp"
#include "workload/trace.hpp"

namespace rhik::workload {
namespace {

TEST(SizeDist, SamplesWithinBuckets) {
  const SizeDistribution d({{10, 20, 1.0}, {100, 200, 1.0}});
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t s = d.sample(rng);
    EXPECT_TRUE((s >= 10 && s <= 20) || (s >= 100 && s <= 200)) << s;
  }
}

TEST(SizeDist, WeightsRespected) {
  const SizeDistribution d({{1, 1, 9.0}, {1000, 1000, 1.0}});
  Rng rng(2);
  int small = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) small += (d.sample(rng) == 1);
  EXPECT_NEAR(small, n * 0.9, n * 0.02);
}

TEST(SizeDist, MeanMatchesAnalytic) {
  const SizeDistribution d({{10, 20, 1.0}, {100, 200, 3.0}});
  EXPECT_NEAR(d.mean(), 0.25 * 15.0 + 0.75 * 150.0, 1e-9);
}

TEST(SizeDist, AtlasWriteMatchesTableI) {
  // 94.1% of Baidu Atlas writes are 128-256 KB (Table I).
  const auto d = SizeDistribution::atlas_write();
  Rng rng(3);
  int large = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) large += (d.sample(rng) > 128 * 1024);
  EXPECT_NEAR(large, n * 0.941, n * 0.02);
  EXPECT_GT(d.mean(), 100.0 * 1024);  // dominated by the large bucket
}

TEST(SizeDist, FbEtcMatchesTableI) {
  // 40% of ETC requests are tiny (<= 11 B), 5% are 1 KB-1 MB.
  const auto d = SizeDistribution::fb_memcached_etc();
  Rng rng(4);
  int tiny = 0, huge = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const auto s = d.sample(rng);
    tiny += (s <= 11);
    huge += (s > 1024);
  }
  EXPECT_NEAR(tiny, n * 0.40, n * 0.02);
  EXPECT_NEAR(huge, n * 0.05, n * 0.01);
}

TEST(SizeDist, TableIPairProjections) {
  // Table I key-count projections for a 4 TB device: the Atlas range is
  // tens of millions to billions; the ETC upper bound is hundreds of
  // billions (mean of the 0-11 B bucket).
  constexpr std::uint64_t k4TB = 4ull << 40;
  const auto atlas = SizeDistribution::atlas_write().pair_count_range(k4TB);
  EXPECT_GT(atlas.min_pairs, 10e6);
  EXPECT_LT(atlas.min_pairs, 100e6);
  EXPECT_GT(atlas.max_pairs, 1e9);

  const auto etc = SizeDistribution::fb_memcached_etc().pair_count_range(k4TB);
  EXPECT_GT(etc.max_pairs, 100e9);  // paper: up to 744 billion
}

TEST(SizeDist, RocksdbPresetsMatchFast20Averages) {
  // FAST'20: average pair sizes between 57 B and 153 B.
  EXPECT_NEAR(SizeDistribution::rocksdb_udb().mean(), 153.0, 10.0);
  EXPECT_NEAR(SizeDistribution::rocksdb_up2x().mean(), 57.0, 10.0);
  EXPECT_GT(SizeDistribution::rocksdb_zippydb().mean(), 57.0);
  EXPECT_LT(SizeDistribution::rocksdb_zippydb().mean(), 153.0);
}

TEST(SizeDist, FixedAndUniform) {
  Rng rng(5);
  EXPECT_EQ(SizeDistribution::fixed(777).sample(rng), 777u);
  const auto u = SizeDistribution::uniform(5, 10);
  for (int i = 0; i < 100; ++i) {
    const auto s = u.sample(rng);
    EXPECT_GE(s, 5u);
    EXPECT_LE(s, 10u);
  }
}

TEST(KeyGen, DeterministicAndSized) {
  const Bytes a = key_for_id(12345, 16);
  const Bytes b = key_for_id(12345, 16);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(key_for_id(1, 128).size(), 128u);
  EXPECT_NE(key_for_id(1, 16), key_for_id(2, 16));
}

TEST(KeyGen, DistinctAcrossWideIdRange) {
  std::set<Bytes> keys;
  for (std::uint64_t id = 0; id < 10000; ++id) keys.insert(key_for_id(id, 16));
  EXPECT_EQ(keys.size(), 10000u);
}

TEST(KeyGen, ValuesVerifiable) {
  Bytes v(100);
  fill_value(42, v);
  EXPECT_TRUE(check_value(42, v));
  EXPECT_FALSE(check_value(43, v));
  v[50] ^= 1;
  EXPECT_FALSE(check_value(42, v));
}

TEST(KeyGen, StreamPatterns) {
  KeyIdStream seq(KeyPattern::kSequential, 5);
  EXPECT_EQ(seq.next(), 0u);
  EXPECT_EQ(seq.next(), 1u);
  for (int i = 0; i < 10; ++i) EXPECT_LT(seq.next(), 5u);

  KeyIdStream uni(KeyPattern::kUniform, 100, 7);
  KeyIdStream zipf(KeyPattern::kZipfian, 100, 7);
  std::set<std::uint64_t> uvals, zvals;
  for (int i = 0; i < 1000; ++i) {
    const auto u = uni.next();
    const auto z = zipf.next();
    EXPECT_LT(u, 100u);
    EXPECT_LT(z, 100u);
    uvals.insert(u);
    zvals.insert(z);
  }
  // Zipfian concentrates on fewer distinct keys than uniform.
  EXPECT_LT(zvals.size(), uvals.size());
}

TEST(Trace, SaveLoadRoundTrip) {
  Trace t{{OpType::kPut, 1, 100},
          {OpType::kGet, 2, 0},
          {OpType::kDel, 3, 0},
          {OpType::kExist, 4, 0}};
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.csv";
  ASSERT_EQ(save_trace(t, path), Status::kOk);
  auto loaded = load_trace(path);
  ASSERT_TRUE(loaded);
  ASSERT_EQ(loaded->size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ((*loaded)[i].type, t[i].type);
    EXPECT_EQ((*loaded)[i].key_id, t[i].key_id);
    EXPECT_EQ((*loaded)[i].value_size, t[i].value_size);
  }
  std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileFails) {
  EXPECT_EQ(load_trace("/nonexistent/path/t.csv").status(), Status::kIoError);
}

TEST(IbmCos, EightClustersSpanTheCacheBudget) {
  const auto profiles = ibm_cos_profiles();
  ASSERT_EQ(profiles.size(), 8u);
  // Fig. 5 structure: >= 4 clusters whose index is well under 10 MB and
  // >= 2 whose index far exceeds it (at 32 KiB pages, R = 1927).
  int small = 0, large = 0;
  for (const auto& p : profiles) {
    const auto bytes = p.index_bytes(32 * 1024, 1927);
    if (bytes < 5ull << 20) ++small;
    if (bytes > 20ull << 20) ++large;
    EXPECT_GT(p.read_fraction, 0.5);  // object stores are read-heavy
  }
  EXPECT_GE(small, 4);
  EXPECT_GE(large, 2);
}

TEST(IbmCos, TracesMatchProfiles) {
  auto profiles = ibm_cos_profiles(/*scale=*/0.01);
  const auto& p = profiles[1];  // cluster 022, small
  const Trace load = cos_load_trace(p, 1);
  EXPECT_EQ(load.size(), p.num_keys);
  for (const auto& op : load) {
    EXPECT_EQ(op.type, OpType::kPut);
    EXPECT_GE(op.value_size, p.value_lo);
    EXPECT_LE(op.value_size, p.value_hi);
  }
  const Trace measure = cos_measure_trace(p, 2);
  EXPECT_EQ(measure.size(), p.measured_ops);
  std::uint64_t gets = 0;
  for (const auto& op : measure) {
    EXPECT_LT(op.key_id, p.num_keys);
    gets += (op.type == OpType::kGet);
  }
  EXPECT_NEAR(static_cast<double>(gets) / measure.size(), p.read_fraction, 0.05);
}

TEST(Replay, SyncRunProducesStats) {
  // Both submission modes account reads and verify values alike.
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async" : "sync");
    kvssd::DeviceConfig cfg;
    cfg.geometry = flash::Geometry::tiny(64);
    kvssd::KvssdDevice dev(cfg);
    Trace t;
    for (std::uint64_t i = 0; i < 200; ++i) t.push_back({OpType::kPut, i, 64});
    for (std::uint64_t i = 0; i < 200; ++i) t.push_back({OpType::kGet, i, 0});

    ReplayOptions opts;
    opts.async = async;
    opts.verify_values = true;
    const ReplayResult r = replay(dev, t, opts);
    EXPECT_EQ(r.ops, 400u);
    EXPECT_EQ(r.failed_ops, 0u);
    EXPECT_EQ(r.not_found, 0u);
    EXPECT_EQ(r.bytes_written, 200u * 64);
    EXPECT_EQ(r.bytes_read, 200u * 64);
    EXPECT_GT(r.elapsed, 0u);
    EXPECT_GT(r.throughput_ops(), 0.0);
  }
}

TEST(Replay, AsyncRunFasterThanSync) {
  const auto mk = [] {
    kvssd::DeviceConfig cfg;
    cfg.geometry = flash::Geometry::tiny(64);
    cfg.cmd_overhead_ns = 20 * kMicrosecond;
    return cfg;
  };
  Trace t;
  for (std::uint64_t i = 0; i < 300; ++i) t.push_back({OpType::kPut, i, 128});

  kvssd::KvssdDevice sync_dev(mk());
  kvssd::KvssdDevice async_dev(mk());
  ReplayOptions sync_opts;
  ReplayOptions async_opts;
  async_opts.async = true;
  const auto rs = replay(sync_dev, t, sync_opts);
  const auto ra = replay(async_dev, t, async_opts);
  EXPECT_LT(ra.elapsed, rs.elapsed);
}

TEST(Replay, GetsOfMissingKeysCountNotFound) {
  kvssd::DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  kvssd::KvssdDevice dev(cfg);
  Trace t{{OpType::kGet, 999, 0}, {OpType::kDel, 998, 0}, {OpType::kExist, 997, 0}};
  const ReplayResult r = replay(dev, t, {});
  EXPECT_EQ(r.not_found, 3u);
  EXPECT_EQ(r.failed_ops, 0u);
}

}  // namespace
}  // namespace rhik::workload
