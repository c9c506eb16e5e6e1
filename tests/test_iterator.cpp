// Tests for the iterator command set (§II-A, §VI).
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "kvssd/device.hpp"

namespace rhik::kvssd {
namespace {

DeviceConfig iter_config() {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(64);
  cfg.prefix_signatures = true;  // §VI signature scheme
  return cfg;
}

ByteSpan key(const std::string& s) { return as_bytes(s); }

class IteratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 25; ++i) {
      ASSERT_EQ(dev_.put(key("user:" + std::to_string(i)),
                         key("u" + std::to_string(i))),
                Status::kOk);
      ASSERT_EQ(dev_.put(key("item:" + std::to_string(i)), key("i")), Status::kOk);
    }
  }
  KvssdDevice dev_{iter_config()};
};

TEST_F(IteratorTest, EnumeratesPrefixInBatches) {
  auto handle = dev_.open_iterator(key("user"));
  ASSERT_TRUE(handle);
  std::set<std::string> seen;
  std::vector<IteratorEntry> batch;
  Status s;
  while ((s = dev_.iterator_next(*handle, 7, &batch)) == Status::kOk) {
    EXPECT_LE(batch.size(), 7u);
    for (const auto& e : batch) seen.insert(rhik::to_string(ByteSpan{e.key}));
  }
  EXPECT_EQ(s, Status::kNotFound);  // iterator end
  EXPECT_EQ(seen.size(), 25u);
  for (const auto& k : seen) EXPECT_EQ(k.substr(0, 5), "user:");
  EXPECT_EQ(dev_.close_iterator(*handle), Status::kOk);
}

TEST_F(IteratorTest, KeyValueIteratorReturnsValues) {
  auto handle = dev_.open_iterator(key("user"), {.include_values = true});
  ASSERT_TRUE(handle);
  std::vector<IteratorEntry> batch;
  std::size_t total = 0;
  while (dev_.iterator_next(*handle, 10, &batch) == Status::kOk) {
    for (const auto& e : batch) {
      const std::string k = rhik::to_string(ByteSpan{e.key});
      EXPECT_EQ(rhik::to_string(ByteSpan{e.value}), "u" + k.substr(5));
      ++total;
    }
  }
  EXPECT_EQ(total, 25u);
  dev_.close_iterator(*handle);
}

TEST_F(IteratorTest, KeyValueIteratorHandlesMultiPageValues) {
  // Values spanning several flash pages (extents) come back whole.
  const std::string big(15000, 'X');
  ASSERT_EQ(dev_.put(key("user:big"), key(big)), Status::kOk);
  auto handle = dev_.open_iterator(key("user:big"), {.include_values = true});
  ASSERT_TRUE(handle);
  std::vector<IteratorEntry> batch;
  ASSERT_EQ(dev_.iterator_next(*handle, 10, &batch), Status::kOk);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(rhik::to_string(ByteSpan{batch[0].value}), big);
  dev_.close_iterator(*handle);
}

TEST_F(IteratorTest, EmptyPrefixClassYieldsEnd) {
  auto handle = dev_.open_iterator(key("nothing-matches"));
  ASSERT_TRUE(handle);
  std::vector<IteratorEntry> batch;
  EXPECT_EQ(dev_.iterator_next(*handle, 10, &batch), Status::kNotFound);
  dev_.close_iterator(*handle);
}

TEST_F(IteratorTest, HandleLimitEnforced) {
  std::vector<std::uint32_t> handles;
  for (std::uint32_t i = 0; i < IteratorManager::kMaxOpenIterators; ++i) {
    auto h = dev_.open_iterator(key("user"));
    ASSERT_TRUE(h) << i;
    handles.push_back(*h);
  }
  EXPECT_EQ(dev_.open_iterator(key("user")).status(), Status::kIteratorMax);
  ASSERT_EQ(dev_.close_iterator(handles[0]), Status::kOk);
  EXPECT_TRUE(dev_.open_iterator(key("user")).has_value());
}

TEST_F(IteratorTest, InvalidHandlesRejected) {
  std::vector<IteratorEntry> batch;
  EXPECT_EQ(dev_.iterator_next(999, 10, &batch), Status::kInvalidArgument);
  EXPECT_EQ(dev_.close_iterator(999), Status::kInvalidArgument);
  EXPECT_EQ(dev_.open_iterator(key("")).status(), Status::kInvalidArgument);
  auto handle = dev_.open_iterator(key("user"));
  ASSERT_TRUE(handle);
  EXPECT_EQ(dev_.iterator_next(*handle, 0, &batch), Status::kInvalidArgument);
  EXPECT_EQ(dev_.iterator_next(*handle, 5, nullptr), Status::kInvalidArgument);
}

TEST_F(IteratorTest, SnapshotDoesNotSeeLaterInserts) {
  auto handle = dev_.open_iterator(key("user"));
  ASSERT_TRUE(handle);
  ASSERT_EQ(dev_.put(key("user:new"), key("x")), Status::kOk);
  std::set<std::string> seen;
  std::vector<IteratorEntry> batch;
  while (dev_.iterator_next(*handle, 10, &batch) == Status::kOk) {
    for (const auto& e : batch) seen.insert(rhik::to_string(ByteSpan{e.key}));
  }
  EXPECT_EQ(seen.count("user:new"), 0u);
  EXPECT_EQ(seen.size(), 25u);
  dev_.close_iterator(*handle);
}

TEST_F(IteratorTest, KeysDeletedBeforeOpenAreAbsent) {
  ASSERT_EQ(dev_.del(key("user:3")), Status::kOk);
  auto handle = dev_.open_iterator(key("user"));
  ASSERT_TRUE(handle);
  std::size_t n = 0;
  std::vector<IteratorEntry> batch;
  while (dev_.iterator_next(*handle, 10, &batch) == Status::kOk) {
    for (const auto& e : batch) {
      EXPECT_NE(rhik::to_string(ByteSpan{e.key}), "user:3");
      ++n;
    }
  }
  EXPECT_EQ(n, 24u);
  EXPECT_EQ(dev_.close_iterator(*handle), Status::kOk);
}

TEST(Iterator, UnsupportedWithoutPrefixSignatures) {
  DeviceConfig cfg;
  cfg.geometry = flash::Geometry::tiny(32);
  KvssdDevice dev(cfg);
  EXPECT_EQ(dev.open_iterator(as_bytes(std::string("a"))).status(),
            Status::kUnsupported);
  std::vector<IteratorEntry> batch;
  EXPECT_EQ(dev.iterator_next(1, 5, &batch), Status::kUnsupported);
  EXPECT_EQ(dev.close_iterator(1), Status::kUnsupported);
}

}  // namespace
}  // namespace rhik::kvssd
