// Unit + property tests for the fixed-capacity hopscotch table — the
// record-layer building block (§IV-A1).
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "hash/hopscotch.hpp"

namespace rhik::hash {
namespace {

TEST(Hopscotch, InsertFindErase) {
  HopscotchTable t(64, 8);
  EXPECT_EQ(t.insert(100, 7), Status::kOk);
  EXPECT_EQ(t.size(), 1u);
  ASSERT_TRUE(t.find(100).has_value());
  EXPECT_EQ(*t.find(100), 7u);
  EXPECT_FALSE(t.find(101).has_value());
  EXPECT_TRUE(t.erase(100));
  EXPECT_FALSE(t.erase(100));
  EXPECT_EQ(t.size(), 0u);
}

TEST(Hopscotch, InsertUpdatesInPlace) {
  HopscotchTable t(64, 8);
  EXPECT_EQ(t.insert(5, 10), Status::kOk);
  EXPECT_EQ(t.insert(5, 20), Status::kOk);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(5), 20u);
}

TEST(Hopscotch, FillToHighOccupancy) {
  // Hopscotch's selling point is high occupancy; 80% (the paper's resize
  // threshold) must insert without aborts on a realistic table.
  HopscotchTable t(1927, 32);  // Eq. 1 geometry for 32 KiB pages
  Rng rng(42);
  const std::uint32_t target = static_cast<std::uint32_t>(1927 * 0.8);
  for (std::uint32_t i = 0; i < target; ++i) {
    ASSERT_EQ(t.insert(rng.next(), i), Status::kOk) << "at " << i;
  }
  EXPECT_EQ(t.size(), target);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Hopscotch, FullTableReportsIndexFull) {
  HopscotchTable t(32, 32);  // neighbourhood covers the whole table
  std::uint32_t inserted = 0;
  Rng rng(1);
  while (inserted < 32) {
    const Status s = t.insert(rng.next(), inserted);
    ASSERT_EQ(s, Status::kOk);
    ++inserted;
  }
  EXPECT_EQ(t.insert(rng.next(), 99), Status::kIndexFull);
}

TEST(Hopscotch, CollisionAbortWhenDisplacementFails) {
  // Craft signatures that all land in one home bucket of a table whose
  // neighbourhood is tiny: the (H+1)-th insert cannot be placed.
  HopscotchTable t(64, 2);
  std::vector<std::uint64_t> same_home;
  std::uint64_t sig = 1;
  while (same_home.size() < 3) {
    if (t.home_bucket(sig) == 0) same_home.push_back(sig);
    ++sig;
  }
  EXPECT_EQ(t.insert(same_home[0], 0), Status::kOk);
  EXPECT_EQ(t.insert(same_home[1], 1), Status::kOk);
  // Third entry for the same 2-wide neighbourhood: displacement cannot
  // help because every candidate slot belongs to bucket 0 itself.
  EXPECT_EQ(t.insert(same_home[2], 2), Status::kCollisionAbort);
  EXPECT_TRUE(t.check_invariants());
}

TEST(Hopscotch, ForEachVisitsAll) {
  HopscotchTable t(128, 16);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    ASSERT_EQ(t.insert(i * 7919, i), Status::kOk);
  }
  std::uint64_t sum = 0, count = 0;
  t.for_each([&](const Record& r) {
    sum += r.ppa;
    ++count;
  });
  EXPECT_EQ(count, 50u);
  EXPECT_EQ(sum, 50u * 51u / 2);
}

TEST(Hopscotch, ClearEmptiesTable) {
  HopscotchTable t(64, 8);
  for (std::uint64_t i = 0; i < 20; ++i) ASSERT_EQ(t.insert(i * 31 + 1, i), Status::kOk);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_FALSE(t.find(i * 31 + 1));
  EXPECT_TRUE(t.check_invariants());
}

TEST(Hopscotch, LoadSlotReconstructs) {
  HopscotchTable src(64, 8);
  Rng rng(3);
  for (int i = 0; i < 40; ++i) ASSERT_EQ(src.insert(rng.next(), i), Status::kOk);

  // Rebuild via the deserialization path.
  HopscotchTable dst(64, 8);
  for (std::uint32_t b = 0; b < 64; ++b) {
    std::uint32_t info = src.hopinfo(b);
    while (info != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctz(info));
      info &= info - 1;
      const std::uint32_t idx = (b + bit) % 64;
      dst.load_slot(idx, src.slot(idx), b);
    }
  }
  EXPECT_EQ(dst.size(), src.size());
  EXPECT_TRUE(dst.check_invariants());
  src.for_each([&](const Record& r) {
    ASSERT_TRUE(dst.find(r.sig).has_value());
    EXPECT_EQ(*dst.find(r.sig), r.ppa);
  });
}

// Property test: random op sequences agree with a reference map and keep
// the hopinfo invariants, across table geometries.
struct GeomParam {
  std::uint32_t capacity;
  std::uint32_t hop;
};

class HopscotchPropertyTest : public ::testing::TestWithParam<GeomParam> {};

TEST_P(HopscotchPropertyTest, AgreesWithReferenceMap) {
  const auto [capacity, hop] = GetParam();
  HopscotchTable t(capacity, hop);
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(capacity * 131 + hop);

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t sig = rng.next_below(capacity * 2) + 1;
    const int action = static_cast<int>(rng.next_below(10));
    if (action < 5) {  // insert/update
      if (ref.size() < capacity * 7 / 10 || ref.count(sig)) {
        const std::uint64_t ppa = rng.next_below(1 << 20);
        const Status s = t.insert(sig, ppa);
        if (ok(s)) {
          ref[sig] = ppa;
        } else {
          // Abort allowed only for new keys under pressure.
          EXPECT_FALSE(ref.count(sig));
        }
      }
    } else if (action < 8) {  // lookup
      const auto got = t.find(sig);
      const auto it = ref.find(sig);
      if (it == ref.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, it->second);
      }
    } else {  // erase
      EXPECT_EQ(t.erase(sig), ref.erase(sig) > 0);
    }
    if (step % 2000 == 0) {
      ASSERT_TRUE(t.check_invariants()) << "step " << step;
    }
  }
  EXPECT_EQ(t.size(), ref.size());
  EXPECT_TRUE(t.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, HopscotchPropertyTest,
    ::testing::Values(GeomParam{64, 8}, GeomParam{240, 32}, GeomParam{1927, 32},
                      GeomParam{33, 32}, GeomParam{512, 16}, GeomParam{128, 32}));

// Same-home displacement chains: 40 signatures sharing one home bucket
// are inserted until the neighbourhood aborts, updated, then torn down
// out of insertion order — near the table head, mid-table and at the
// tail, where the neighbourhood wraps. Every step is checked against a
// reference map and the hopinfo invariants.
TEST(Hopscotch, SameHomeDisplacementChains) {
  constexpr std::uint32_t kCapacity = 33;
  constexpr std::uint32_t kHopRange = 32;
  Rng rng(0xD15C);
  for (const std::uint32_t target : {1u, kCapacity / 2, kCapacity - 1}) {
    HopscotchTable t(kCapacity, kHopRange);
    std::vector<std::uint64_t> homed;
    while (homed.size() < 40) {
      const std::uint64_t sig = rng.next();
      if (t.home_bucket(sig) == target) homed.push_back(sig);
    }
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    const auto agrees = [&] {
      if (!t.check_invariants() || t.size() != ref.size()) return false;
      for (const std::uint64_t sig : homed) {
        const auto got = t.find(sig);
        const auto it = ref.find(sig);
        if (got.has_value() != (it != ref.end())) return false;
        if (got && *got != it->second) return false;
      }
      return true;
    };
    const auto upsert = [&](std::uint64_t sig, std::uint64_t ppa) {
      const Status s = t.insert(sig, ppa);
      if (ok(s)) {
        ref[sig] = ppa;
      } else {
        // Only a new signature may abort: its whole neighbourhood is
        // taken by the chain.
        EXPECT_EQ(s, Status::kCollisionAbort);
        EXPECT_FALSE(ref.count(sig));
      }
    };

    for (std::size_t i = 0; i < homed.size(); ++i) {
      upsert(homed[i], i);
      ASSERT_TRUE(agrees()) << "bucket " << target << ", insert " << i;
    }
    // The chain fills the home neighbourhood exactly.
    EXPECT_EQ(t.size(), kHopRange);
    for (std::size_t i = 0; i < homed.size(); ++i) {
      upsert(homed[i], 1000 + i);
      ASSERT_TRUE(agrees()) << "bucket " << target << ", update " << i;
    }
    for (std::size_t i = homed.size(); i-- > 0;) {
      EXPECT_EQ(t.erase(homed[i]), ref.erase(homed[i]) > 0);
      ASSERT_TRUE(agrees()) << "bucket " << target << ", erase " << i;
    }
    EXPECT_EQ(t.size(), 0u);
  }
}

// Wrap-around behaviour: neighbourhoods crossing the end of the array.
TEST(Hopscotch, WrapAroundNeighbourhood) {
  HopscotchTable t(33, 32);
  Rng rng(9);
  for (int i = 0; i < 25; ++i) {
    ASSERT_EQ(t.insert(rng.next(), i), Status::kOk);
    ASSERT_TRUE(t.check_invariants());
  }
  std::uint32_t visited = 0;
  t.for_each([&](const Record&) { ++visited; });
  EXPECT_EQ(visited, 25u);
}

}  // namespace
}  // namespace rhik::hash
