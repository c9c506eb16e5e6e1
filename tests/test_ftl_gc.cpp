// Unit tests for the garbage collector (§IV-B) against a mock index.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"
#include "ftl/gc.hpp"

namespace rhik::ftl {
namespace {

using flash::Geometry;
using flash::NandLatency;
using flash::Ppa;

/// Minimal in-RAM index standing in for RHIK during GC unit tests.
class MockIndexHooks : public GcIndexHooks {
 public:
  Result<std::optional<Ppa>> gc_lookup(std::uint64_t sig) override {
    if (!ok(lookup_error)) return lookup_error;
    auto it = map.find(sig);
    if (it == map.end()) return std::optional<Ppa>(std::nullopt);
    return std::optional<Ppa>(it->second);
  }
  Status gc_update_location(std::uint64_t sig, Ppa new_ppa) override {
    map[sig] = new_ppa;
    ++relocations;
    return Status::kOk;
  }
  bool gc_is_live_index_page(Ppa ppa) const override {
    return live_index_pages.count(ppa) != 0;
  }
  Status gc_relocate_index_page(Ppa) override {
    ++index_relocations;
    return Status::kOk;
  }

  std::unordered_map<std::uint64_t, Ppa> map;
  std::unordered_map<Ppa, bool> live_index_pages;
  /// When set, every gc_lookup fails with it (an unreadable index page).
  Status lookup_error = Status::kOk;
  int relocations = 0;
  int index_relocations = 0;
};

class GcTest : public ::testing::Test {
 protected:
  GcTest()
      : nand_(Geometry::tiny(8), NandLatency::kvemu_defaults(), &clock_),
        alloc_(&nand_, 2),
        store_(&nand_, &alloc_),
        gc_(&nand_, &alloc_, &store_, &hooks_,
            {.policy = GcPolicy::kGreedy,
             .hot_cold_separation = false,
             .background_free_blocks = 0,
             .wear_leveling_threshold = 0.0}) {}

  /// Writes a pair and registers it in the mock index.
  void put(std::uint64_t sig, const std::string& value, std::uint64_t epoch = 0) {
    const std::string key = "k" + std::to_string(sig);
    auto ppa = store_.write_pair(sig, as_bytes(key), as_bytes(value),
                                 /*for_gc=*/false, epoch);
    ASSERT_TRUE(ppa);
    if (auto it = hooks_.map.find(sig); it != hooks_.map.end()) {
      store_.note_stale(it->second,
                        FlashKvStore::pair_bytes(key.size(), value.size()));
    }
    hooks_.map[sig] = *ppa;
  }

  void del(std::uint64_t sig, std::size_t value_size) {
    const std::string key = "k" + std::to_string(sig);
    const auto it = hooks_.map.find(sig);
    ASSERT_NE(it, hooks_.map.end());
    store_.note_stale(it->second, FlashKvStore::pair_bytes(key.size(), value_size));
    hooks_.map.erase(it);
  }

  SimClock clock_;
  flash::NandDevice nand_;
  PageAllocator alloc_;
  FlashKvStore store_;
  MockIndexHooks hooks_;
  GarbageCollector gc_;
};

TEST_F(GcTest, NothingToCollectInitially) {
  EXPECT_EQ(gc_.collect_one(), Status::kDeviceFull);  // no sealed victim
}

TEST_F(GcTest, ReclaimsFullyStaleBlock) {
  // Fill a block, then delete everything in it.
  const std::string value(400, 'v');
  std::uint64_t sig = 1;
  const std::uint32_t free0 = alloc_.free_blocks();
  while (!alloc_.pick_victim().has_value()) {
    put(sig++, value);
  }
  for (std::uint64_t s = 1; s < sig; ++s) del(s, value.size());

  ASSERT_EQ(gc_.collect_one(), Status::kOk);
  EXPECT_EQ(gc_.stats().blocks_reclaimed, 1u);
  EXPECT_EQ(gc_.stats().pairs_relocated, 0u);  // all stale
  // The reclaimed block is back; at most one block stays open for writes.
  EXPECT_GE(alloc_.free_blocks(), free0 - 1);
}

TEST_F(GcTest, RelocatesLivePairsAndUpdatesIndex) {
  // GC copies each live pair out of the victim page it already read:
  // one NAND read per victim page and no store read per pair.
  const auto value_of = [](std::uint64_t s) {
    return std::string(400, static_cast<char>('a' + s % 26));
  };
  std::uint64_t sig = 1;
  for (; !alloc_.pick_victim().has_value(); ++sig) put(sig, value_of(sig), 100 + sig);
  // Delete every other pair.
  for (std::uint64_t s = 1; s < sig; s += 2) del(s, value_of(s).size());

  const auto victim = alloc_.pick_victim();
  ASSERT_TRUE(victim);
  const std::uint32_t pages = alloc_.pages_used(*victim);
  const std::uint64_t reads_before = nand_.stats().page_reads;
  ASSERT_EQ(gc_.collect_one(), Status::kOk);
  EXPECT_EQ(nand_.stats().page_reads - reads_before, pages);
  EXPECT_EQ(gc_.stats().pages_read, pages);
  EXPECT_EQ(store_.stats().pairs_read, 0u);
  EXPECT_EQ(gc_.stats().pairs_relocated, (sig - 1) / 2);
  EXPECT_EQ(static_cast<std::uint64_t>(hooks_.relocations), (sig - 1) / 2);

  // Every surviving pair is readable at its new location with intact
  // contents and its original epoch.
  for (std::uint64_t s = 2; s < sig; s += 2) {
    const auto it = hooks_.map.find(s);
    ASSERT_NE(it, hooks_.map.end());
    EXPECT_NE(flash::ppa_block(nand_.geometry(), it->second), *victim) << s;
    Bytes k, v;
    std::uint64_t epoch = 0;
    ASSERT_EQ(store_.read_pair(it->second, s, &k, &v, &epoch), Status::kOk) << s;
    EXPECT_EQ(rhik::to_string(k), "k" + std::to_string(s));
    EXPECT_EQ(rhik::to_string(v), value_of(s));
    EXPECT_EQ(epoch, 100 + s);
  }
}

TEST_F(GcTest, RelocatesMultiPageExtents) {
  // A large pair spanning several pages plus stale filler.
  const std::string big(12000, 'B');
  put(100, big, /*epoch=*/7);
  const std::string filler(900, 'f');
  std::uint64_t sig = 200;
  while (!alloc_.pick_victim().has_value()) put(sig++, filler);
  for (std::uint64_t s = 200; s < sig; ++s) del(s, filler.size());
  const auto victim = alloc_.pick_victim();
  ASSERT_TRUE(victim);
  const std::uint32_t pages = alloc_.pages_used(*victim);
  // The live extent's continuation pages are the only pages read twice.
  const std::uint32_t cont =
      continuation_pages(nand_.geometry(), FlashKvStore::pair_bytes(4, big.size()));
  ASSERT_GT(cont, 0u);
  const std::uint64_t reads_before = nand_.stats().page_reads;
  // The big pair must survive relocation of its block.
  ASSERT_EQ(gc_.collect_one(), Status::kOk);
  EXPECT_EQ(nand_.stats().page_reads - reads_before, pages + cont);
  EXPECT_EQ(gc_.stats().pages_read, pages + cont);
  EXPECT_EQ(store_.stats().pairs_read, 0u);
  const auto it = hooks_.map.find(100);
  ASSERT_NE(it, hooks_.map.end());
  Bytes k, v;
  std::uint64_t epoch = 0;
  ASSERT_EQ(store_.read_pair(it->second, 100, &k, &v, &epoch), Status::kOk);
  EXPECT_EQ(rhik::to_string(k), "k100");
  EXPECT_EQ(v.size(), big.size());
  EXPECT_EQ(rhik::to_string(v), big);
  EXPECT_EQ(epoch, 7u);
}

TEST_F(GcTest, CollectReachesTargetFreeBlocks) {
  const std::string value(800, 'x');
  std::uint64_t sig = 1;
  // Consume most of the device, then delete everything.
  while (alloc_.free_blocks() > 3) put(sig++, value);
  for (std::uint64_t s = 1; s < sig; ++s) del(s, value.size());
  ASSERT_EQ(store_.flush(), Status::kOk);

  ASSERT_EQ(gc_.collect(6), Status::kOk);
  EXPECT_GE(alloc_.free_blocks(), 6u);
}

TEST_F(GcTest, LiveIndexPagesRelocatedStaleSkipped) {
  // Program index-zone pages directly and mark some live in the mock.
  const auto& g = nand_.geometry();
  Bytes page(g.page_size, 0xAB);
  Bytes spare(g.spare_size(), 0xFF);
  SpareTag{PageKind::kIndexRecord, Stream::kIndex}.encode(spare);
  std::vector<Ppa> pages;
  while (!alloc_.pick_victim().has_value()) {
    auto ppa = alloc_.allocate(Stream::kIndex);
    ASSERT_TRUE(ppa);
    ASSERT_EQ(nand_.program_page(*ppa, page, spare), Status::kOk);
    pages.push_back(*ppa);
  }
  // Mark a third of them live.
  for (std::size_t i = 0; i < pages.size(); i += 3) {
    hooks_.live_index_pages[pages[i]] = true;
  }
  ASSERT_EQ(gc_.collect_one(), Status::kOk);
  EXPECT_EQ(static_cast<std::size_t>(hooks_.index_relocations),
            (pages.size() + 2) / 3);
}

TEST_F(GcTest, StatsTrackWriteAmplification) {
  const std::string value(500, 'w');
  std::uint64_t sig = 1;
  while (!alloc_.pick_victim().has_value()) put(sig++, value);
  // Everything stays live: worst-case relocation.
  ASSERT_EQ(gc_.collect_one(), Status::kOk);
  EXPECT_EQ(gc_.stats().blocks_reclaimed, 1u);
  EXPECT_GT(gc_.stats().bytes_relocated, 0u);
  EXPECT_EQ(store_.stats().gc_pairs_written, gc_.stats().pairs_relocated);
}

TEST_F(GcTest, TombstonesPreservedWhileKeyDeleted) {
  // A tombstone whose signature has no newer version must survive GC
  // (it is the durable deletion record); one superseded by a newer put
  // is dropped.
  ASSERT_TRUE(store_.write_tombstone(501, as_bytes(std::string("kdeleted"))));
  ASSERT_TRUE(store_.write_tombstone(502, as_bytes(std::string("kreborn"))));
  // 502 was re-inserted afterwards: the mock index maps it again.
  put(502, "new-value");
  const std::string filler(700, 'f');
  std::uint64_t sig = 600;
  while (!alloc_.pick_victim().has_value()) put(sig++, filler);
  for (std::uint64_t s = 600; s < sig; ++s) del(s, filler.size());

  const auto relocated_before = gc_.stats().pairs_relocated;
  ASSERT_EQ(gc_.collect_one(), Status::kOk);
  // The deleted key's tombstone was carried forward...
  EXPECT_GT(gc_.stats().pairs_relocated, relocated_before);
  EXPECT_GE(store_.stats().tombstones_written, 3u);  // 2 originals + relocation
  // ...and the reborn key's pair remains readable wherever it lives now.
  Bytes k, v;
  ASSERT_EQ(store_.read_pair(hooks_.map[502], 502, &k, &v), Status::kOk);
  EXPECT_EQ(rhik::to_string(v), "new-value");
}

TEST_F(GcTest, CollectReportsNoProgressOnFullyLiveDevice) {
  // Everything stays live: collect() must terminate with kDeviceFull
  // rather than livelock (relocations consume what erases free).
  const std::string value(800, 'L');
  std::uint64_t sig = 1;
  while (alloc_.free_blocks() > 3) put(sig++, value);
  const Status s = gc_.collect(6);
  EXPECT_EQ(s, Status::kDeviceFull);
}

TEST_F(GcTest, FailedLookupStopsCollectionAndKeepsVictim) {
  // A lookup that fails may hide a live pair: the collector must return
  // the error, not treat the pair as stale and erase the block under it.
  const std::string value(400, 'v');
  std::uint64_t sig = 1;
  while (!alloc_.pick_victim().has_value()) put(sig++, value);
  for (std::uint64_t s = 1; s < sig; s += 2) del(s, value.size());
  ASSERT_EQ(store_.flush(), Status::kOk);  // the victim's last page too
  const auto victim = alloc_.pick_victim();
  ASSERT_TRUE(victim);
  const std::uint32_t programmed = nand_.pages_programmed(*victim);
  const std::uint32_t free_before = alloc_.free_blocks();

  hooks_.lookup_error = Status::kIoError;
  EXPECT_EQ(gc_.collect_one(), Status::kIoError);
  EXPECT_EQ(gc_.stats().blocks_reclaimed, 0u);
  EXPECT_EQ(nand_.pages_programmed(*victim), programmed);
  EXPECT_EQ(alloc_.free_blocks(), free_before);
  EXPECT_EQ(hooks_.relocations, 0);
  for (std::uint64_t s = 2; s < sig; s += 2) {
    Bytes k, v;
    ASSERT_EQ(store_.read_pair(hooks_.map.at(s), s, &k, &v), Status::kOk) << s;
    EXPECT_EQ(rhik::to_string(v), value);
  }

  // Once the index reads again, the same victim collects normally.
  hooks_.lookup_error = Status::kOk;
  ASSERT_EQ(gc_.collect_one(), Status::kOk);
  EXPECT_EQ(gc_.stats().blocks_reclaimed, 1u);
  EXPECT_GT(hooks_.relocations, 0);
}

TEST_F(GcTest, ChurnStressKeepsAllLiveDataReadable) {
  Rng rng(13);
  const int key_space = 120;
  std::unordered_map<std::uint64_t, std::string> expect;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t sig = 1 + rng.next_below(key_space);
    const std::string value(rng.next_range(50, 1200), static_cast<char>('a' + sig % 26));
    // Update (old version goes stale) or insert.
    if (expect.count(sig)) del(sig, expect[sig].size());
    put(sig, value);
    expect[sig] = value;
    if (alloc_.needs_gc()) {
      ASSERT_EQ(gc_.collect(4), Status::kOk) << "step " << step;
    }
  }
  for (const auto& [sig, value] : expect) {
    const auto it = hooks_.map.find(sig);
    ASSERT_NE(it, hooks_.map.end());
    Bytes k, v;
    ASSERT_EQ(store_.read_pair(it->second, sig, &k, &v), Status::kOk);
    EXPECT_EQ(rhik::to_string(v), value);
  }
  EXPECT_GT(gc_.stats().blocks_reclaimed, 0u);
}

}  // namespace
}  // namespace rhik::ftl
