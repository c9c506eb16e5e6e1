// Unit tests for the byte-budgeted LRU cache (the SSD DRAM model).
#include <gtest/gtest.h>

#include <vector>

#include "cache/lru_cache.hpp"

namespace rhik::cache {
namespace {

TEST(LruCache, HitAndMissCounting) {
  LruCache<int, int> c(4096, 1024);  // 4 entries
  EXPECT_EQ(c.get(1), nullptr);
  c.insert(1, 100);
  ASSERT_NE(c.get(1), nullptr);
  EXPECT_EQ(*c.get(1), 100);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_DOUBLE_EQ(c.stats().miss_ratio(), 1.0 / 3.0);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> c(3 * 100, 100);  // 3 entries
  c.insert(1, 1);
  c.insert(2, 2);
  c.insert(3, 3);
  ASSERT_NE(c.get(1), nullptr);  // refresh 1; LRU is now 2
  c.insert(4, 4);
  EXPECT_EQ(c.peek(2), nullptr);
  EXPECT_NE(c.peek(1), nullptr);
  EXPECT_NE(c.peek(3), nullptr);
  EXPECT_NE(c.peek(4), nullptr);
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(LruCache, DirtyWritebackOnEviction) {
  LruCache<int, int> c(2 * 10, 10);  // 2 entries
  std::vector<std::pair<int, int>> written;
  c.set_writeback([&](const int& k, int& v) {
    written.emplace_back(k, v);
    return Status::kOk;
  });
  c.insert(1, 11, /*dirty=*/true);
  c.insert(2, 22, /*dirty=*/false);
  c.insert(3, 33);  // evicts 1 (dirty) -> writeback
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], std::make_pair(1, 11));
  c.insert(4, 44);  // evicts 2 (clean) -> no writeback
  EXPECT_EQ(written.size(), 1u);
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);
}

TEST(LruCache, MarkDirtyThenFlushAll) {
  LruCache<int, int> c(1024, 1);
  std::vector<int> written;
  c.set_writeback([&](const int& k, int&) {
    written.push_back(k);
    return Status::kOk;
  });
  c.insert(1, 1);
  c.insert(2, 2);
  c.mark_dirty(1);
  EXPECT_EQ(c.flush_all(), Status::kOk);
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], 1);
  // Entries remain cached and are now clean.
  EXPECT_NE(c.peek(1), nullptr);
  EXPECT_EQ(c.flush_all(), Status::kOk);
  EXPECT_EQ(written.size(), 1u);
}

TEST(LruCache, FlushAllReportsFailedWriteBacks) {
  LruCache<int, int> c(2, 1);  // 2 entries
  Status result = Status::kIoError;
  std::vector<int> written;
  c.set_writeback([&](const int& k, int&) {
    if (ok(result)) written.push_back(k);
    return result;
  });
  c.insert(1, 1, /*dirty=*/true);
  c.insert(2, 2, /*dirty=*/true);
  // Evicting 1 fails: 1 stays cached and dirty, over budget, and the
  // eviction loop stops there instead of retrying it.
  c.insert(3, 3, /*dirty=*/true);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.stats().dirty_writebacks, 1u);
  EXPECT_EQ(c.flush_all(), Status::kIoError);
  result = Status::kOk;
  // All three stayed dirty: the next flush writes them.
  EXPECT_EQ(c.flush_all(), Status::kOk);
  EXPECT_EQ(written, (std::vector<int>{3, 2, 1}));
  EXPECT_EQ(c.flush_all(), Status::kOk);
  EXPECT_EQ(written.size(), 3u);
  // Back under budget at the next insert.
  c.insert(4, 4);
  EXPECT_EQ(c.size(), 2u);
}

TEST(LruCache, EraseSkipsWriteback) {
  LruCache<int, int> c(1024, 1);
  int writebacks = 0;
  c.set_writeback([&](const int&, int&) {
    ++writebacks;
    return Status::kOk;
  });
  c.insert(1, 1, /*dirty=*/true);
  c.erase(1);
  EXPECT_EQ(writebacks, 0);
  EXPECT_EQ(c.peek(1), nullptr);
  c.erase(42);  // erasing a missing key is a no-op
}

TEST(LruCache, InsertReplacesAndMergesDirty) {
  LruCache<int, int> c(1024, 1);
  int writebacks = 0;
  c.set_writeback([&](const int&, int&) {
    ++writebacks;
    return Status::kOk;
  });
  c.insert(1, 10, /*dirty=*/true);
  c.insert(1, 20, /*dirty=*/false);  // replacement keeps the dirty bit
  EXPECT_EQ(*c.peek(1), 20);
  EXPECT_EQ(c.flush_all(), Status::kOk);
  EXPECT_EQ(writebacks, 1);
}

TEST(LruCache, BudgetOfZeroStillHoldsOne) {
  LruCache<int, int> c(0, 4096);
  c.insert(1, 1);
  EXPECT_NE(c.peek(1), nullptr);
  c.insert(2, 2);
  EXPECT_EQ(c.peek(1), nullptr);
  EXPECT_EQ(c.size(), 1u);
}

TEST(LruCache, ShrinkCapacityEvicts) {
  LruCache<int, int> c(10 * 1, 1);
  std::vector<int> written;
  c.set_writeback([&](const int& k, int&) {
    written.push_back(k);
    return Status::kOk;
  });
  for (int i = 0; i < 10; ++i) c.insert(i, i, /*dirty=*/true);
  c.set_capacity_entries(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(written.size(), 8u);  // evicted dirty entries written back
  EXPECT_NE(c.peek(9), nullptr);
  EXPECT_NE(c.peek(8), nullptr);
}

TEST(LruCache, ClearWritesBackDirty) {
  LruCache<int, int> c(1024, 1);
  int writebacks = 0;
  c.set_writeback([&](const int&, int&) {
    ++writebacks;
    return Status::kOk;
  });
  c.insert(1, 1, /*dirty=*/true);
  c.insert(2, 2);
  c.clear();
  EXPECT_EQ(writebacks, 1);
  EXPECT_EQ(c.size(), 0u);
}

TEST(LruCache, PeekDoesNotPerturbLruOrStats) {
  LruCache<int, int> c(2 * 1, 1);
  c.insert(1, 1);
  c.insert(2, 2);
  const auto misses_before = c.stats().misses;
  c.peek(1);  // does not refresh
  c.insert(3, 3);
  EXPECT_EQ(c.peek(1), nullptr);  // 1 was LRU despite the peek
  EXPECT_EQ(c.stats().misses, misses_before);
}

TEST(LruCache, ManyEntriesStressRemainsConsistent) {
  LruCache<std::uint64_t, std::uint64_t> c(128 * 8, 8);  // 128 entries
  for (std::uint64_t i = 0; i < 10000; ++i) {
    c.insert(i % 300, i);
    if (i % 3 == 0) c.get(i % 150);
  }
  EXPECT_LE(c.size(), 128u);
  EXPECT_GT(c.stats().hits, 0u);
  EXPECT_GT(c.stats().evictions, 0u);
}

}  // namespace
}  // namespace rhik::cache
