// Tests for the iterator command set (§II-A, §VI): the one snapshot-bound
// key handle, kvs_open_iterator / kvs_iterator_next / kvs_close_iterator.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "flash/fault_injector.hpp"
#include "kvssd/device.hpp"
#include "shard/sharded_kvssd.hpp"

namespace rhik::kvssd {
namespace {

DeviceConfig iter_config() {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  cfg.prefix_signatures = true;  // §VI signature scheme
  return cfg;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }

/// Writes 25 `user:` and 25 `item:` keys; user:i holds "ui".
template <typename Backend>
void put_fixture_keys(Backend& dev) {
  for (int i = 0; i < 25; ++i) {
    ASSERT_EQ(dev.put(key("user:" + std::to_string(i)),
                      key("u" + std::to_string(i))),
              Status::kOk);
    ASSERT_EQ(dev.put(key("item:" + std::to_string(i)), key("i")), Status::kOk);
  }
}

/// Drains `handle` in batches of `batch` until the first non-kOk status,
/// which it returns; every key lands in `seen`.
Status drain_keys(api::IKvsBackend& dev, std::uint64_t handle, std::size_t batch,
                  std::set<std::string>* seen) {
  std::vector<Bytes> keys;
  Status s;
  while ((s = dev.kvs_iterator_next(handle, batch, &keys)) == Status::kOk) {
    for (const auto& k : keys) seen->insert(rhik::to_string(ByteSpan{k}));
  }
  return s;
}

class IteratorTest : public ::testing::Test {
 protected:
  void SetUp() override { put_fixture_keys(dev_); }
  flash::FaultInjector fi_{24};  ///< outlives dev_, which may hold it
  KvssdDevice dev_{iter_config()};
};

TEST_F(IteratorTest, EnumeratesPrefixInBatches) {
  auto handle = dev_.kvs_open_iterator(key("user"), nullptr);
  ASSERT_TRUE(handle);
  std::set<std::string> seen;
  std::vector<std::size_t> sizes;
  std::vector<Bytes> batch;
  Status s;
  while ((s = dev_.kvs_iterator_next(*handle, 7, &batch)) == Status::kOk) {
    sizes.push_back(batch.size());
    for (const auto& k : batch) seen.insert(rhik::to_string(ByteSpan{k}));
  }
  EXPECT_EQ(s, Status::kNotFound);  // iterator end
  // The batch limit is honoured, and every batch but the last is full.
  EXPECT_EQ(sizes, (std::vector<std::size_t>{7, 7, 7, 4}));
  EXPECT_EQ(seen.size(), 25u);
  for (const auto& k : seen) EXPECT_EQ(k.substr(0, 5), "user:");
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, EmptyPrefixClassYieldsEnd) {
  auto handle = dev_.kvs_open_iterator(key("nothing-matches"), nullptr);
  ASSERT_TRUE(handle);
  std::vector<Bytes> batch;
  EXPECT_EQ(dev_.kvs_iterator_next(*handle, 10, &batch), Status::kNotFound);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, HandleLimitEnforced) {
  std::vector<std::uint64_t> handles;
  for (std::uint32_t i = 0; i < IteratorManager::kMaxOpenIterators; ++i) {
    auto h = dev_.kvs_open_iterator(key("user"), nullptr);
    ASSERT_TRUE(h) << i;
    handles.push_back(*h);
  }
  EXPECT_EQ(dev_.kvs_open_iterator(key("user"), nullptr).status(),
            Status::kIteratorMax);
  ASSERT_EQ(dev_.kvs_close_iterator(handles[0]), Status::kOk);
  EXPECT_TRUE(dev_.kvs_open_iterator(key("user"), nullptr).has_value());
}

TEST_F(IteratorTest, InvalidHandlesRejected) {
  std::vector<Bytes> batch;
  EXPECT_EQ(dev_.kvs_iterator_next(999, 10, &batch), Status::kInvalidArgument);
  EXPECT_EQ(dev_.kvs_close_iterator(999), Status::kInvalidArgument);
  EXPECT_EQ(dev_.kvs_open_iterator(key(""), nullptr).status(),
            Status::kInvalidArgument);
  auto handle = dev_.kvs_open_iterator(key("user"), nullptr);
  ASSERT_TRUE(handle);
  EXPECT_EQ(dev_.kvs_iterator_next(*handle, 0, &batch), Status::kInvalidArgument);
  EXPECT_EQ(dev_.kvs_iterator_next(*handle, 5, nullptr), Status::kInvalidArgument);
}

TEST_F(IteratorTest, SnapshotDoesNotSeeLaterInserts) {
  auto handle = dev_.kvs_open_iterator(key("user"), nullptr);
  ASSERT_TRUE(handle);
  ASSERT_EQ(dev_.put(key("user:new"), key("x")), Status::kOk);
  std::set<std::string> seen;
  EXPECT_EQ(drain_keys(dev_, *handle, 10, &seen), Status::kNotFound);
  EXPECT_EQ(seen.count("user:new"), 0u);
  EXPECT_EQ(seen.size(), 25u);
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, KeysDeletedBeforeOpenAreAbsent) {
  ASSERT_EQ(dev_.del(key("user:3")), Status::kOk);
  auto handle = dev_.kvs_open_iterator(key("user"), nullptr);
  ASSERT_TRUE(handle);
  std::set<std::string> seen;
  EXPECT_EQ(drain_keys(dev_, *handle, 10, &seen), Status::kNotFound);
  EXPECT_EQ(seen.count("user:3"), 0u);
  EXPECT_EQ(seen.size(), 24u);
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, ReadErrorEndsNextUntilPowerReturns) {
  // Everything on flash, then power dies during the next program: from
  // here on every NAND read fails, as get and read_at report.
  ASSERT_EQ(dev_.flush(), Status::kOk);
  auto snap = dev_.open_snapshot();
  ASSERT_TRUE(snap);
  auto handle = dev_.kvs_open_iterator(key("user"), &*snap);
  ASSERT_TRUE(handle);
  dev_.nand().set_fault_injector(&fi_);
  fi_.arm_after(1);
  ASSERT_EQ(dev_.put(key("cut:0"), key(std::string(300, 'c'))), Status::kOk);
  EXPECT_NE(dev_.flush(), Status::kOk);
  ASSERT_TRUE(fi_.powered_off());
  Bytes value;
  EXPECT_EQ(dev_.get(key("user:3"), &value), Status::kIoError);
  EXPECT_EQ(dev_.read_at(*snap, key("user:3"), &value), Status::kIoError);

  // The scan reports the error, not a clean end, and hands back nothing.
  std::vector<Bytes> batch;
  EXPECT_EQ(dev_.kvs_iterator_next(*handle, 10, &batch), Status::kIoError);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(dev_.kvs_iterator_next(*handle, 10, &batch), Status::kIoError);

  // The failed calls consumed nothing: once power is back the same
  // handle streams every key, and each value is one read_at away on the
  // iterator's pin.
  fi_.power_on();
  std::set<std::string> seen;
  EXPECT_EQ(drain_keys(dev_, *handle, 10, &seen), Status::kNotFound);
  EXPECT_EQ(seen.size(), 25u);
  for (const auto& k : seen) {
    ASSERT_EQ(dev_.read_at(*snap, key(k), &value), Status::kOk) << k;
    EXPECT_EQ(rhik::to_string(value), "u" + k.substr(5));
  }
  EXPECT_EQ(dev_.kvs_close_iterator(*handle), Status::kOk);
  EXPECT_EQ(dev_.release_snapshot(*snap), Status::kOk);
}

TEST(Iterator, ShardReadErrorSurfacesBeforeEnd) {
  shard::ShardedConfig cfg;
  cfg.num_shards = 2;
  cfg.device = iter_config();
  flash::FaultInjector fi(24);  // outlives arr, which may hold it
  shard::ShardedKvssd arr(cfg);
  put_fixture_keys(arr);
  ASSERT_EQ(arr.flush(), Status::kOk);  // quiescent: safe to poke a shard
  auto handle = arr.kvs_open_iterator(key("user"), nullptr);
  ASSERT_TRUE(handle);

  // Cut power on shard 1 only; shard 0, scanned first, stays readable.
  arr.shard_device(1).nand().set_fault_injector(&fi);
  fi.arm_after(1);
  for (int i = 0; !fi.powered_off() && i < 64; ++i) {
    const std::string k = "cut:" + std::to_string(i);
    if (arr.shard_of(key(k)) != 1) continue;
    ASSERT_EQ(arr.put(key(k), key(std::string(300, 'c'))), Status::kOk);
    (void)arr.flush();
  }
  ASSERT_TRUE(fi.powered_off());

  // The keys shard 0 holds come out; then the scan reports the error,
  // never a clean end.
  std::set<std::string> seen;
  EXPECT_EQ(drain_keys(arr, *handle, 64, &seen), Status::kIoError);
  EXPECT_LT(seen.size(), 25u);
  std::vector<Bytes> batch;
  EXPECT_EQ(arr.kvs_iterator_next(*handle, 64, &batch), Status::kIoError);

  fi.power_on();
  EXPECT_EQ(drain_keys(arr, *handle, 64, &seen), Status::kNotFound);
  EXPECT_EQ(seen.size(), 25u);
  for (const auto& k : seen) EXPECT_EQ(k.substr(0, 5), "user:");
  EXPECT_EQ(arr.kvs_close_iterator(*handle), Status::kOk);
}

TEST(Iterator, RetainedExtentResolvesFromItsHeadPage) {
  // Resolving a key needs only its stored key, which sits in the head
  // page: a retained version spanning several pages costs the scan one
  // page read, not the whole extent.
  KvssdDevice dev(iter_config());
  const std::string big(3 * 4096, 'b');  // head page + 3 continuation pages
  ASSERT_EQ(dev.put(key("big:0"), key(big)), Status::kOk);
  auto snap = dev.open_snapshot();
  ASSERT_TRUE(snap);
  ASSERT_EQ(dev.put(key("big:0"), key("small")), Status::kOk);
  ASSERT_EQ(dev.flush(), Status::kOk);  // both versions on flash
  auto handle = dev.kvs_open_iterator(key("big:"), &*snap);
  ASSERT_TRUE(handle);

  const std::uint64_t reads_before = dev.nand().stats().page_reads;
  std::vector<Bytes> batch;
  ASSERT_EQ(dev.kvs_iterator_next(*handle, 10, &batch), Status::kOk);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(rhik::to_string(ByteSpan{batch[0]}), "big:0");
  // The current version's head page, then the retained version's.
  EXPECT_EQ(dev.nand().stats().page_reads - reads_before, 2u);

  Bytes value;
  ASSERT_EQ(dev.read_at(*snap, key("big:0"), &value), Status::kOk);
  EXPECT_EQ(rhik::to_string(value), big);
  EXPECT_EQ(dev.kvs_close_iterator(*handle), Status::kOk);
  EXPECT_EQ(dev.release_snapshot(*snap), Status::kOk);
}

TEST(Iterator, UnsupportedWithoutPrefixSignatures) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(32);
  KvssdDevice dev(cfg);
  EXPECT_EQ(dev.kvs_open_iterator(key("user"), nullptr).status(),
            Status::kUnsupported);
  std::vector<Bytes> batch;
  EXPECT_EQ(dev.kvs_iterator_next(1, 5, &batch), Status::kUnsupported);
  EXPECT_EQ(dev.kvs_close_iterator(1), Status::kUnsupported);
}

}  // namespace
}  // namespace rhik::kvssd
